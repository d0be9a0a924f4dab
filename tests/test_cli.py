from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys

import pytest

import sparqlgate
from checks import assert_valid_html, fetch
from sparqlgate.cli import build_parser, cli_main
from sparqlgate.manager import ApiManager
from sparqlgate.server import serve
from sparqlgate.testkit import MockRule, results_json, start_mock

GOLDEN_CSV = (
    "citing,cited\n"
    "10.3233/ds-190019,10.1108/jd-12-2013-0166\n"
    "10.3233/sw-160224,10.1108/jd-12-2013-0166\n"
)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def test_parser_defaults():
    args = build_parser().parse_args(["-s", "conf.hf", "-c", "/api/v1/x"])
    assert args.sources == ["conf.hf"]
    assert args.format == "json"
    assert args.method == "get"
    assert args.output is None


def test_parser_accepts_multiple_sources():
    args = build_parser().parse_args(["-s", "a.hf", "b.hf", "-d"])
    assert args.sources == ["a.hf", "b.hf"]


def test_missing_sources_is_a_usage_error(capsys):
    assert cli_main(["-c", "/api/v1/x"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_format_is_a_usage_error():
    assert cli_main(["-s", "c.hf", "-c", "/x", "-f", "xml"]) == 2


def test_no_action_is_a_usage_error(conf_path, capsys):
    assert cli_main(["-s", conf_path]) == 2
    assert "nothing to do" in capsys.readouterr().err


def test_unreadable_config_is_reported(tmp_path, capsys):
    assert cli_main(["-s", str(tmp_path / "nope.hf"), "-c", "/x"]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_config_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.hf"
    bad.write_text("#url /api\n#type api\n", encoding="utf-8")
    assert cli_main(["-s", str(bad), "-c", "/x"]) == 2
    assert "endpoint" in capsys.readouterr().err


def test_addon_that_does_not_import_is_reported(conf_path, tmp_path, capsys):
    addon = tmp_path / "extras.py"
    addon.write_text("def register(registry:\n", encoding="utf-8")
    with open(conf_path, encoding="utf-8") as handle:
        config = handle.read().replace("#endpoint", "#addon extras\n#endpoint", 1)
    with open(conf_path, "w", encoding="utf-8") as handle:
        handle.write(config)
    assert cli_main(["-s", conf_path, "-c", "/api/v1/citations/10.1108/x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: addon 'extras.py' does not import: SyntaxError: ")
    assert err.endswith(f"(file {conf_path!r}, field #addon)\n")
    assert err.count("\n") == 1


def test_addon_whose_register_raises_is_reported(conf_path, tmp_path, capsys):
    addon = tmp_path / "extras.py"
    addon.write_text("def register(registry):\n    raise RuntimeError('no')\n", encoding="utf-8")
    with open(conf_path, encoding="utf-8") as handle:
        config = handle.read().replace("#endpoint", "#addon extras\n#endpoint", 1)
    with open(conf_path, "w", encoding="utf-8") as handle:
        handle.write(config)
    assert cli_main(["-s", conf_path, "-c", "/api/v1/citations/10.1108/x"]) == 2
    assert capsys.readouterr().err == (
        "error: addon 'extras.py' register() failed: RuntimeError: no "
        f"(file {conf_path!r}, field #addon)\n"
    )


def test_config_that_is_not_utf_8_is_reported(tmp_path, capsys):
    bad = tmp_path / "latin1.hf"
    bad.write_bytes(
        "#url /api\n#type api\n#title Z\u00fcrich\n#endpoint http://127.0.0.1:1/q\n"
        .encode("latin-1")
    )
    assert cli_main(["-s", str(bad), "-c", "/api/x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: document is not UTF-8: ")
    assert err.endswith(f"(file {str(bad)!r})\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("url", "/api/{v}"),
        ("endpoint", "ftp://127.0.0.1/sparql"),
        ("endpoint", "http://127.0.0.1:99999/sparql"),
        ("endpoint", "http://127.0.0.1:abc/sparql"),
        ("endpoint", "http://[::1/sparql"),
        ("endpoint", "http://:1/sparql"),
    ],
    ids=["api-url-parameter", "scheme", "port-range", "port-text", "ipv6-host", "no-host"],
)
def test_bad_api_url_or_endpoint_fails_loading(conf_path, capsys, field, value):
    # Each of these once escaped as a traceback or loaded and failed every call.
    with open(conf_path, encoding="utf-8") as handle:
        config = handle.read()
    config = re.sub(rf"^#{field} .*$", f"#{field} {value}", config, count=1, flags=re.M)
    with open(conf_path, "w", encoding="utf-8") as handle:
        handle.write(config)
    assert cli_main(["-s", conf_path, "-c", "/api/v1/citations/10.1108/x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {'api url' if field == 'url' else 'endpoint'} {value!r} ")
    assert err.endswith(f"(file {conf_path!r}, block 1, field #{field})\n")
    assert err.count("\n") == 1


def test_cli_and_server_import_no_third_party_http_client():
    code = (
        "import sys, sparqlgate.cli, sparqlgate.server; "
        "print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(sparqlgate.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# ---------------------------------------------------------------------------
# One-shot calls (-c)
# ---------------------------------------------------------------------------


def test_call_prints_exactly_the_body(conf_path, capsys):
    code = cli_main(
        ["-s", conf_path, "-c", "/api/v1/citations/10.1108/jd-12-2013-0166", "-f", "csv"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out == GOLDEN_CSV  # no banner, no trailing framing


def test_call_defaults_to_json(conf_path, capsys):
    code = cli_main(["-s", conf_path, "-c", "/api/v1/citations/10.1108/jd-12-2013-0166"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)[0]["citing"] == "10.3233/ds-190019"


def test_format_refinement_in_the_url_beats_the_flag(conf_path, capsys):
    code = cli_main(
        ["-s", conf_path, "-c",
         "/api/v1/citations/10.1108/jd-12-2013-0166?format=csv", "-f", "json"]
    )
    assert code == 0
    assert capsys.readouterr().out == GOLDEN_CSV


def test_post_method_flag(conf_path, capsys):
    code = cli_main(["-s", conf_path, "-c", "/api/v1/stats/10.3233", "-m", "post"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)[2]["span"] == "PT36H"


def test_failed_call_prints_error_body_to_stderr(conf_path, capsys):
    code = cli_main(["-s", conf_path, "-c", "/api/v1/not-there"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["status"] == 404


def test_output_file_receives_the_body(conf_path, tmp_path, capsys):
    target = tmp_path / "out.csv"
    code = cli_main(
        ["-s", conf_path, "-c", "/api/v1/citations/10.1108/jd-12-2013-0166",
         "-f", "csv", "-o", str(target)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == GOLDEN_CSV


def test_unwritable_output_file_fails(conf_path, tmp_path, capsys):
    code = cli_main(
        ["-s", conf_path, "-c", "/api/v1/citations/10.1108/x",
         "-o", str(tmp_path / "no-such-dir" / "out.json")]
    )
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


UNICODE_CONF = """#url /u
#type api
#title Zürich – 東京
#endpoint __ENDPOINT__

#url /names
#type operation
#method get
#sparql SELECT ?name WHERE { ?place ?label ?name }
"""


def test_output_is_utf_8_whatever_the_locale(tmp_path):
    # Under a latin-1 stdout, -c and -d still print the bytes the HTTP surface sends.
    rule = MockRule(re.compile(""), results_json(("name",), [{"name": "Zürich – 東京"}]))
    with start_mock([rule]) as endpoint:
        conf = tmp_path / "u.hf"
        conf.write_text(UNICODE_CONF.replace("__ENDPOINT__", endpoint.url), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(sparqlgate.__file__))
        env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "latin-1"}
        with serve(ApiManager([str(conf)]), port=0) as gateway:
            for action, path in ((["-c", "/u/names"], "/u/names"), (["-d"], "/u")):
                done = subprocess.run(
                    [sys.executable, "-m", "sparqlgate", "-s", str(conf), *action],
                    env=env, capture_output=True, timeout=30,
                )
                assert done.returncode == 0, done.stderr
                assert done.stdout == fetch(gateway.url + path).body.encode("utf-8")


# ---------------------------------------------------------------------------
# Documentation (-d) and stylesheet (-css)
# ---------------------------------------------------------------------------


def test_docs_action_writes_valid_html(conf_path, tmp_path):
    target = tmp_path / "docs.html"
    assert cli_main(["-s", conf_path, "-d", "-o", str(target)]) == 0
    page = target.read_text(encoding="utf-8")
    assert_valid_html(page)
    assert "/citations/{doi}" in page


def test_docs_to_stdout_with_custom_css(conf_path, tmp_path, capsys):
    sheet = tmp_path / "style.css"
    sheet.write_text("h1 { color: crimson; }", encoding="utf-8")
    assert cli_main(["-s", conf_path, "-d", "-css", str(sheet)]) == 0
    assert "color: crimson" in capsys.readouterr().out


def test_missing_stylesheet_is_a_usage_error(conf_path, tmp_path, capsys):
    code = cli_main(["-s", conf_path, "-d", "-css", str(tmp_path / "ghost.css")])
    assert code == 2
    assert "stylesheet" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Web server (-w) failure paths; the serving loop itself is covered
# via GatewayServer in the server tests.
# ---------------------------------------------------------------------------


def test_malformed_listen_address(conf_path, capsys):
    assert cli_main(["-s", conf_path, "-w", "8080"]) == 2
    assert cli_main(["-s", conf_path, "-w", "127.0.0.1:war"]) == 2
    assert cli_main(["-s", conf_path, "-w", "127.0.0.1:70000"]) == 2
    assert cli_main(["-s", conf_path, "-w", "127.0.0.1:\u00b2"]) == 2  # a digit, not a decimal
    assert cli_main(["-s", conf_path, "-w", "127.0.0.1:" + "9" * 5000]) == 2
    assert capsys.readouterr().err.count("bad address") == 5


def test_occupied_port_reports_bind_failure(conf_path, capsys):
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        port = holder.getsockname()[1]
        code = cli_main(["-s", conf_path, "-w", f"127.0.0.1:{port}"])
    assert code == 1
    assert "cannot bind" in capsys.readouterr().err
