"""The README's quick start, run as written.

Every `sh` block of "Quick start (CLI)" runs in one fresh directory, with
`fairsplit` standing for `python3 -m fairsplit.cli`.  Each fairsplit command
logs its exit code and keeps its own stdout, so the test can hold every
command to the result its comment promises.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# fairsplit runs the CLI, saves its stdout as out<i>.txt, passes it on, and
# logs "<i> <exit code> <arguments>"; any other failing command stops the run
PRELUDE = """set -e
i=0
python3() { "$PY" "$@"; }
fairsplit() {
  i=$((i + 1))
  code=0
  "$PY" -m fairsplit.cli "$@" > "out$i.txt" || code=$?
  cat "out$i.txt"
  echo "$i $code $*" >> codes.log
}
"""


def _quick_start_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Quick start (CLI)", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```sh\n(.*?)```", section, re.S)


def test_readme_quick_start_runs_as_documented(tmp_path):
    blocks = _quick_start_blocks()
    assert len(blocks) == 2
    env = dict(os.environ, PY=sys.executable,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(["sh", "-c", PRELUDE + "\n".join(blocks)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    runs = {}
    for line in (tmp_path / "codes.log").read_text().splitlines():
        i, code, argv = line.split(" ", 2)
        runs[argv] = (int(code), (tmp_path / ("out%s.txt" % i)).read_text())
    assert len(runs) == 16

    # every command succeeds, except the refutation its comment announces
    failing = {argv: code for argv, (code, _) in runs.items() if code != 0}
    assert failing == {"solve --input k5.json --q 2 --flavor fair": 1}

    def doc(prefix):
        (out,) = [o for argv, (_, o) in runs.items() if argv.startswith(prefix)]
        return json.loads(out)

    solved = json.loads((tmp_path / "out.json").read_text())
    assert solved["status"] == "found"
    assert solved["splitting"] == [[1, 3, 5], [2, 4, 6]]
    assert doc("solve --input k5.json")["status"] == "exhausted_none"
    assert doc("kneser-chi")["chi"] == 3
    tverberg = doc("geometry --op tverberg")
    assert tverberg["parts"] == [[1, 3], [2]]
    assert tverberg["point"] == [[2, 1]]
    reduced = doc("homology")["reduced"]
    assert [r["betti"] for r in reduced if r["betti"]] == [1]
    assert [r["dim"] for r in reduced if r["betti"]] == [1]
