"""Run one tradegravity CLI stage in this process with its layers traced.

    python perfbench/stage.py SPANS_JSON STAGE [STAGE_OPTIONS...]

The stage runs through ``tradegravity.cli.main`` exactly as ``python -m
tradegravity.cli STAGE ...`` would run it; the spans recorded around the
module functions it calls are written to SPANS_JSON when it returns, and the
process exits with the stage's exit code.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
from tradegravity import cli  # noqa: E402


def main(argv):
    out, stage_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    with tracer.instrument():
        code = cli.main(stage_args)
    Path(out).write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
