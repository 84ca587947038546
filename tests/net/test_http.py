"""Tests for repro.net.http."""

from repro.net.http import Headers, Request, Response


class TestHeaders:
    def test_case_insensitive_get_set(self):
        headers = Headers({"User-Agent": "x"})
        assert headers["user-agent"] == "x"
        headers["USER-AGENT"] = "y"
        assert headers["User-Agent"] == "y"
        assert len(headers) == 1

    def test_contains_and_delete(self):
        headers = Headers({"X-Test": "1"})
        assert "x-test" in headers
        del headers["X-TEST"]
        assert "x-test" not in headers

    def test_get_default(self):
        assert Headers().get("missing", "d") == "d"

    def test_iteration_preserves_original_names(self):
        headers = Headers({"Content-Type": "text/html"})
        assert list(headers) == [("Content-Type", "text/html")]

    def test_equality(self):
        assert Headers({"A": "1"}) == Headers({"a": "1"})
        assert Headers({"A": "1"}) != Headers({"a": "2"})


class TestRequest:
    def test_path_normalized_to_leading_slash(self):
        assert Request(host="e.com", path="x").path == "/x"

    def test_dict_headers_coerced(self):
        request = Request(host="e.com", headers={"User-Agent": "bot"})
        assert request.user_agent == "bot"

    def test_url(self):
        assert Request(host="e.com", path="/a").url == "https://e.com/a"

    def test_path_only_strips_query(self):
        assert Request(host="e.com", path="/a?q=1").path_only == "/a"


class TestResponse:
    def test_str_body_encoded(self):
        response = Response(body="héllo")
        assert isinstance(response.body, bytes)
        assert response.text == "héllo"

    def test_ok_range(self):
        assert Response(status=204).ok
        assert not Response(status=404).ok

    def test_content_length(self):
        assert Response(body="abcd").content_length == 4
