"""Tests for the ai.txt protocol."""

from repro.core.aitxt import (
    AiTxtPolicy,
    MediaCategory,
    build_aitxt,
    category_for_path,
)


class TestCategoryForPath:
    def test_images(self):
        assert category_for_path("/g/piece.PNG") is MediaCategory.IMAGES

    def test_text(self):
        assert category_for_path("/essay.pdf") is MediaCategory.TEXT

    def test_query_string_ignored(self):
        assert category_for_path("/a.jpg?size=big") is MediaCategory.IMAGES

    def test_unknown(self):
        assert category_for_path("/about") is None


class TestAiTxtPolicy:
    def test_disallow_all(self):
        policy = AiTxtPolicy("User-Agent: *\nDisallow: /")
        assert not policy.may_train("/anything.jpg")

    def test_extension_carveout(self):
        policy = AiTxtPolicy("User-Agent: *\nDisallow: /\nAllow: *.jpg")
        assert policy.may_train("/photos/cat.jpg")
        assert not policy.may_train("/essay.txt")

    def test_empty_allows_all(self):
        assert AiTxtPolicy("").may_train("/a.png")

    def test_allowed_categories(self):
        text = build_aitxt({MediaCategory.IMAGES: True}, default_allow=False)
        categories = AiTxtPolicy(text).allowed_categories()
        assert categories[MediaCategory.IMAGES] is True
        assert categories[MediaCategory.TEXT] is False
        assert categories[MediaCategory.AUDIO] is False


class TestBuildAitxt:
    def test_default_deny(self):
        policy = AiTxtPolicy(build_aitxt())
        assert not policy.may_train("/x.jpg")
        assert not policy.may_train("/x.mp3")

    def test_default_allow_with_image_optout(self):
        text = build_aitxt({MediaCategory.IMAGES: False}, default_allow=True)
        policy = AiTxtPolicy(text)
        assert not policy.may_train("/x.webp")
        assert policy.may_train("/doc.pdf")

    def test_roundtrip_every_category(self):
        for category in MediaCategory:
            text = build_aitxt({category: True}, default_allow=False)
            categories = AiTxtPolicy(text).allowed_categories()
            assert categories[category] is True
            for other, allowed in categories.items():
                if other is not category:
                    assert allowed is False, (category, other)
