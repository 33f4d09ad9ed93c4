"""Byte-exact command-line output on a fixed set of command lines.

The golden files under ``data/report_bytes`` hold the output and exit
status of each command line below.  A refactor must reproduce them
byte for byte.  A new case gets its golden file and exit status from

    PYTHONPATH=src python tests/test_report_bytes.py

which writes only the goldens that do not exist yet and leaves every
existing one as it is.  A change that alters output on purpose records
why in CHANGES.md, bumps the report version, deletes the golden files
it re-blesses and runs the same command.
"""

import json
import sys
from pathlib import Path

import pytest

from qhistories.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "report_bytes"
POINTER = DATA / "pointer_problem.json"  # sampling.pointer_model(3, seed 7)
# sampling.random_family(4, 3, seed 11, max_blocks=2) with the same
# generator's random_density(4, rank=3): three slots of two events each.
THREE_SLOT = DATA / "three_slot_problem.json"

THIRD = "1.0471975511965976"  # pi / 3
CASES = {
    "check-pointer-table": ["check", "{pointer}"],
    "check-pointer-report": ["check", "{pointer}", "--format", "report"],
    "check-three-slot-table": ["check", "{three_slot}"],
    "check-three-slot-report": ["check", "{three_slot}", "--format", "report"],
    "check-pointer-ordered-first": [
        "check", "{pointer}", "--notions", "ordered,medium,sum-rule",
        "--format", "report"],
    **{f"example1-{state}-third": [
        "example1", "--theta", THIRD, "--state", state, "--format", "report"]
       for state in ("rho", "rho1", "rho2")},
    **{f"example1-{state}-wide": [
        "example1", "--theta", "2.2", "--alpha", "0.7", "--state", state]
       for state in ("rho", "rho1", "rho2")},
    "example2-report": ["example2", "--format", "report"],
    "example2-table": ["example2", "--spatial-dim", "3", "--delta", "1,3"],
    "sweep-theta": ["sweep", "--param", "theta", "--start", "0.3",
                    "--stop", "2.8", "--steps", "6"],
    "sweep-alpha": ["sweep", "--param", "alpha", "--start", "0", "--stop",
                    "3.1", "--steps", "5", "--theta", "2.0"],
    # At theta = pi/2 the end rows put e2 on e1 and on e1^perp: p_h2 is
    # about 1e-32 there, so any change of summation order shows.
    "sweep-alpha-meeting": ["sweep", "--param", "alpha", "--start", "0",
                            "--stop", "3.141592653589793", "--steps", "5",
                            "--theta", "1.5707963267948966"],
    "sweep-lam": ["sweep", "--param", "lam", "--start", "0.1", "--stop",
                  "0.9", "--steps", "5", "--state", "rho"],
    "sweep-lam-wide": ["sweep", "--param", "lam", "--start", "0.05",
                       "--stop", "0.95", "--steps", "12", "--theta", "2.2",
                       "--alpha", "0.7"],
}


def run_case(argv, out: Path) -> int:
    argv = [a.replace("{pointer}", str(POINTER))
            .replace("{three_slot}", str(THREE_SLOT)) for a in argv]
    return main(argv + ["--out", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name, tmp_path):
    out = tmp_path / "out.txt"
    status = json.loads((GOLDEN / "exit_status.json").read_text())
    assert run_case(CASES[name], out) == status[name]
    assert out.read_bytes() == (GOLDEN / f"{name}.txt").read_bytes()


def regenerate() -> None:
    """Write the golden file and exit status of every case that has no
    golden file yet; existing goldens and statuses stay untouched."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    status_file = GOLDEN / "exit_status.json"
    status = json.loads(status_file.read_text()) if status_file.exists() else {}
    for name, argv in sorted(CASES.items()):
        golden = GOLDEN / f"{name}.txt"
        if not golden.exists():
            status[name] = run_case(argv, golden)
            print(f"wrote {golden}")
    status_file.write_text(
        json.dumps(status, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(regenerate())
