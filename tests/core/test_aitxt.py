"""Tests for the ai.txt protocol."""

from repro.core.aitxt import AiTxtPolicy


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
