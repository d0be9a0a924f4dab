"""Command-line entry point.

Three actions, by precedence: run the web server (-w), emit HTML
documentation (-d), execute one call URL (-c). Every action needs at
least one configuration document (-s). The one-shot call prints the body
with no extra framing, so shell pipelines see exactly what the HTTP
surface would have sent.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress

from .docs import render_docs
from .errors import ConfigError
from .manager import ApiManager
from .refine import CSV_MEDIA_TYPE, JSON_MEDIA_TYPE
from .server import GatewayServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparqlgate",
        description="Expose a SPARQL endpoint as a documented REST API.",
    )
    parser.add_argument(
        "-s",
        dest="sources",
        nargs="+",
        required=True,
        metavar="CONF",
        help="configuration document(s) to load",
    )
    parser.add_argument(
        "-c",
        dest="call",
        metavar="URL",
        help="execute one complete call URL and print the result",
    )
    parser.add_argument(
        "-f",
        dest="format",
        choices=("csv", "json"),
        default="json",
        help="output format for -c (default: json)",
    )
    parser.add_argument(
        "-o",
        dest="output",
        metavar="FILE",
        help="write the output to FILE instead of standard output",
    )
    parser.add_argument(
        "-m",
        dest="method",
        choices=("get", "post"),
        default="get",
        help="method of the call; must match the operation's #method (default: get)",
    )
    parser.add_argument(
        "-d",
        dest="docs",
        action="store_true",
        help="emit HTML documentation instead of executing a call",
    )
    parser.add_argument(
        "-css",
        dest="css",
        metavar="FILE",
        help="stylesheet file embedded in generated HTML pages",
    )
    parser.add_argument(
        "-w",
        dest="web",
        metavar="HOST:PORT",
        help="run the web server on the given address",
    )
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    if not (args.call or args.docs or args.web):
        parser.print_usage(sys.stderr)
        sys.stderr.write("error: nothing to do; pass -c, -d, or -w\n")
        return 2

    css = None
    if args.css:
        try:
            with open(args.css, encoding="utf-8") as handle:
                css = handle.read()
        except OSError as exc:
            sys.stderr.write(f"error: cannot read stylesheet: {exc}\n")
            return 2

    try:
        manager = ApiManager(args.sources)
    except (OSError, ConfigError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    if args.web:
        return _run_server(manager, args.web, css)
    if args.docs:
        pages = [
            render_docs(api.document.api, api.document.operations, css)
            for api in manager.apis
        ]
        return _write_output(args.output, "\n".join(pages))

    accept = CSV_MEDIA_TYPE if args.format == "csv" else JSON_MEDIA_TYPE
    outcome, _, _ = manager.call(args.call, method=args.method, accept=accept)
    if outcome.status == 200:
        return _write_output(args.output, outcome.body)
    sys.stderr.write(outcome.body + "\n")
    return 1


def _run_server(manager: ApiManager, address: str, css: str | None) -> int:
    host, _, port_text = address.rpartition(":")
    # The length test keeps int() off digit strings too long for it to convert.
    if not (host and port_text.isdecimal() and len(port_text) <= 5 and int(port_text) <= 65535):
        sys.stderr.write(f"error: bad address {address!r}, expected host:port\n")
        return 2
    try:
        server = GatewayServer(manager, host, int(port_text), css)
    except OSError as exc:
        sys.stderr.write(f"error: cannot bind {address}: {exc}\n")
        return 1
    sys.stderr.write(f"dashboard at {server.url}/\n")
    with server, suppress(KeyboardInterrupt):
        server.serve_forever()
    return 0


def _write_output(path: str | None, text: str) -> int:
    if path is None:
        # UTF-8 bytes, as the HTTP surface sends them, whatever the locale.
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
        return 0
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return 1
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
