"""Run the formaldisc CLI and compare its JSON report with a recorded one.

    python tests/golden/check_run.py GOLDEN -- ARGS...

runs `python -m formaldisc ARGS... --json REPORT` in a child process (with
`src` on PYTHONPATH, as the CI steps set it).  The check passes when the
child exits 0, the report without `duration_s` (if it has one), written as
`json.dumps(report, indent=2)` and a newline, equals GOLDEN byte for byte,
and the child peaks under 100 MB of RSS, read with
getrusage(RUSAGE_CHILDREN).  Otherwise it exits nonzero: with the child's
code if the child failed.
"""

import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

LIMIT_MB = 100


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        return __doc__
    golden, args = Path(argv[0]), argv[2:]
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        command = [sys.executable, "-m", "formaldisc", *args, "--json", str(report)]
        code = subprocess.call(command)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        print(f"peak RSS {peak:.1f} MB (limit {LIMIT_MB} MB)")
        if code:
            return code
        text = report.read_text()
    payload = json.loads(text)
    payload.pop("duration_s", None)  # a report has one, a result does not
    if json.dumps(payload, indent=2) + "\n" != golden.read_text():
        return f"report differs from {golden}:\n{text}"
    print(f"report as recorded in {golden}")
    if peak > LIMIT_MB:
        return f"peak RSS over {LIMIT_MB} MB"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
