"""One timed `postdedup dedup` process, started fresh by bench/run.py.

Usage: python3 bench/child.py SRC MODE PROBE_OUT -- CLI_ARGS...

MODE is one of:
  warmup  import the CLI and exit (compiles bytecode, fills the page cache)
  plain   run `cli.main(CLI_ARGS)`; record only when the input corpus file
          is first opened (the first pipeline layer call), through an audit
          hook, so that set-up time can be measured without tracing
  trace   wrap the layer functions that `postdedup.pipeline` calls, run
          `cli.main(CLI_ARGS)`, and write every span to PROBE_OUT

The program is imported from SRC, never from an installed copy.
"""

import os
import sys
import time


def _install_open_probe(input_path: str, marks: list) -> None:
    def hook(event, args):
        if event == "open" and not marks:
            target = args[0]
            if isinstance(target, (str, os.PathLike)) and os.fspath(target) == input_path:
                marks.append(time.monotonic())

    sys.addaudithook(hook)


def _import_cli(src: str):
    sys.path.insert(0, src)
    from postdedup import cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"postdedup imported from {cli.__file__}, not from {src}")
    return cli


def main() -> int:
    src, mode, probe_out, sep, *cli_args = sys.argv[1:]
    if sep != "--" or mode not in ("warmup", "plain", "trace"):
        sys.exit(__doc__)
    if mode == "warmup":
        _import_cli(src)
        return 0

    import json

    if mode == "plain":
        marks: list = []
        _install_open_probe(cli_args[cli_args.index("--input") + 1], marks)
        code = _import_cli(src).main(cli_args)
        record = {"first_call": marks[0] if marks else None}
    else:
        started = time.monotonic()
        cli = _import_cli(src)
        import_s = time.monotonic() - started
        import tracing

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
        code = cli.main(cli_args)
        record = tracer.dump()
        record.update(import_s=import_s, missing=missing)
    with open(probe_out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
