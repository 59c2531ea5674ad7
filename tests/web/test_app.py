"""Tests for the micro web framework's routing and dispatch."""

import json

import pytest

from repro.web.app import App, HTTPError, Request, Response


@pytest.fixture()
def app():
    a = App("t")

    @a.route("/items")
    def list_items(request):
        return {"items": [1, 2]}

    @a.route("/items", methods=("POST",))
    def create_item(request):
        body = request.json()
        return {"created": body["name"]}, 201

    @a.route("/items/<int:item_id>")
    def get_item(request, item_id):
        if item_id > 100:
            raise HTTPError(404, "no such item")
        return {"id": item_id}

    @a.route("/echo/<str:word>/<int:n>")
    def echo(request, word, n):
        return {"echo": word * n}

    return a


def run(app, method, url, **kw):
    return app.handle(App.build_request(method, url, **kw))


class TestRouting:
    def test_get(self, app):
        r = run(app, "GET", "/items")
        assert r.status == 200
        assert r.json() == {"items": [1, 2]}

    def test_post_with_json(self, app):
        r = run(app, "POST", "/items", json_body={"name": "x"})
        assert r.status == 201
        assert r.json() == {"created": "x"}

    def test_path_params_converted(self, app):
        assert run(app, "GET", "/items/42").json() == {"id": 42}

    def test_multiple_params(self, app):
        assert run(app, "GET", "/echo/ab/3").json() == {"echo": "ababab"}

    def test_bad_int_param_is_404(self, app):
        assert run(app, "GET", "/items/notanumber").status == 404

    def test_unknown_path_404(self, app):
        r = run(app, "GET", "/nope")
        assert r.status == 404
        assert "error" in r.json()

    def test_wrong_method_405(self, app):
        assert run(app, "DELETE", "/items").status == 405

    def test_handler_http_error(self, app):
        r = run(app, "GET", "/items/999")
        assert r.status == 404
        assert r.json()["error"] == "no such item"

    def test_handler_crash_becomes_500(self):
        a = App()

        @a.route("/boom")
        def boom(request):
            raise RuntimeError("kaboom")

        r = run(a, "GET", "/boom")
        assert r.status == 500
        assert "kaboom" in r.json()["error"]

    def test_duplicate_route_rejected(self, app):
        with pytest.raises(ValueError):

            @app.route("/items")
            def dup(request):
                return {}

    def test_query_string(self):
        a = App()

        @a.route("/q")
        def q(request):
            return {"v": request.arg("v"), "missing": request.arg("nope", "dflt")}

        r = run(a, "GET", "/q?v=7&other=x")
        assert r.json() == {"v": "7", "missing": "dflt"}


class TestRequestResponse:
    def test_json_parse_error_400(self, app):
        r = run(app, "POST", "/items", body=b"{not json")
        assert r.status == 400
        # nested deeper than the decoder's recursion limit
        assert run(app, "POST", "/items", body=b"[" * 100_000).status == 400

    def test_empty_body_400(self, app):
        r = run(app, "POST", "/items")
        assert r.status == 400

    def test_body_and_json_mutually_exclusive(self):
        with pytest.raises(ValueError):
            App.build_request("POST", "/x", body=b"x", json_body={})

    def test_status_line(self):
        assert Response(404).status_line == "404 Not Found"

    def test_from_handler_result_passthrough(self):
        r = Response(204)
        assert Response.from_handler_result(r) is r

    def test_from_handler_result_json(self):
        r = Response.from_handler_result([1, 2])
        assert r.status == 200
        assert json.loads(r.body) == [1, 2]


class TestRuleCompilation:
    def test_rule_must_start_with_slash(self):
        a = App()
        with pytest.raises(ValueError):
            a.route("no-slash")(lambda request: {})

    def test_duplicate_param_name_rejected(self):
        a = App()
        with pytest.raises(ValueError):
            a.route("/<int:x>/<int:x>")(lambda request, x: {})
