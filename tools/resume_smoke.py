"""End-to-end crash/resume smoke test (the `make resume-smoke` gate).

Drives the real CLI the way an impatient cluster scheduler would:

1. map ``examples/misex1.blif`` with ``--checkpoint``, with
   ``REPRO_JOURNAL_DELAY`` slowing the run down so step 2 has a window;
2. SIGTERM the process once the journal holds at least one completed
   group — the run must exit with the resumable code 75 after writing
   an ``interrupted`` record;
3. re-run with ``--resume --verify none`` — the journaled groups must
   be *replayed* (not re-executed), and a run that replayed anything
   is checked with the exact BDD engine even with verification off;
4. gate on ``repro journal --check`` plus direct assertions on the
   journal: a positive final verdict whose engine is ``bdd``,
   ``replayed >= 1`` and a ``done`` record.

Exit status is non-zero on any violation, so CI can run this as-is.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BLIF = REPO_ROOT / "examples" / "misex1.blif"
EXIT_INTERRUPTED = 75

#: Parent-side sleep after each journaled group — the SIGTERM window.
JOURNAL_DELAY = "0.4"
#: How long step 2 waits for the first group record before giving up.
FIRST_GROUP_TIMEOUT = 120.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def _cli(*args: str, **kwargs) -> subprocess.Popen:
    cmd = [sys.executable, "-m", "repro.cli", *args]
    return subprocess.Popen(
        cmd,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        **kwargs,
    )


def _journal_file(checkpoint: Path) -> Path:
    matches = glob.glob(str(checkpoint / "*.journal.jsonl"))
    if len(matches) != 1:
        raise SystemExit(
            f"expected exactly one journal in {checkpoint}, found {matches}"
        )
    return Path(matches[0])


def _count_groups(path: Path) -> int:
    count = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if '"type": "group"' in line or '"type":"group"' in line:
                    count += 1
    except OSError:
        return 0
    return count


def main() -> int:
    checkpoint = REPO_ROOT / "resume_smoke_ckpt"
    for stale in glob.glob(str(checkpoint / "*")):
        os.unlink(stale)
    checkpoint.mkdir(exist_ok=True)

    map_args = (
        "blif", str(BLIF), "--flow", "hyde", "--jobs", "2",
        "--checkpoint", str(checkpoint),
    )

    print("[1/4] starting checkpointed run (slowed for the kill window)")
    env = _env()
    env["REPRO_JOURNAL_DELAY"] = JOURNAL_DELAY
    proc = _cli(*map_args, env=env)

    print("[2/4] waiting for the first journaled group, then SIGTERM")
    deadline = time.monotonic() + FIRST_GROUP_TIMEOUT
    journal = None
    while time.monotonic() < deadline and proc.poll() is None:
        candidates = glob.glob(str(checkpoint / "*.journal.jsonl"))
        if candidates and _count_groups(Path(candidates[0])) >= 1:
            journal = Path(candidates[0])
            break
        time.sleep(0.05)
    if proc.poll() is not None:
        out = proc.stdout.read() if proc.stdout else ""
        raise SystemExit(
            "run finished before it could be interrupted — raise "
            f"REPRO_JOURNAL_DELAY?\n{out}"
        )
    if journal is None:
        proc.kill()
        raise SystemExit("no journaled group appeared within the timeout")
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=120)
    print(out.rstrip())
    if proc.returncode != EXIT_INTERRUPTED:
        raise SystemExit(
            f"interrupted run exited {proc.returncode}, "
            f"expected {EXIT_INTERRUPTED}"
        )
    groups_before = _count_groups(journal)
    print(f"    interrupted cleanly with {groups_before} group(s) journaled")

    print("[3/4] resuming with verification off")
    proc = _cli(*map_args, "--resume", "--verify", "none", env=_env())
    out, _ = proc.communicate(timeout=600)
    print(out.rstrip())
    if proc.returncode != 0:
        raise SystemExit(f"resumed run exited {proc.returncode}")
    if "[resumed:" not in out:
        raise SystemExit("resumed run did not report replayed groups")

    print("[4/4] validating the journal")
    proc = _cli("journal", str(journal), "--check", env=_env())
    out, _ = proc.communicate(timeout=120)
    print(out.rstrip())
    if proc.returncode != 0:
        raise SystemExit("`repro journal --check` failed")

    records = [
        json.loads(line)
        for line in journal.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    verdicts = [r for r in records if r.get("type") == "verdict"]
    if not verdicts or not verdicts[-1].get("equivalent"):
        raise SystemExit(f"no positive equivalence verdict in {journal}")
    if verdicts[-1].get("engine") != "bdd":
        raise SystemExit(
            f"resumed run was checked by {verdicts[-1].get('engine')!r}, "
            "expected 'bdd' whatever --verify says"
        )
    if verdicts[-1].get("replayed", 0) < 1:
        raise SystemExit(
            f"resume replayed {verdicts[-1].get('replayed')} groups, "
            "expected >= 1"
        )
    if not any(r.get("type") == "done" for r in records):
        raise SystemExit(f"no done record in {journal}")
    if not any(
        r.get("type") == "event" and r.get("kind") == "interrupted"
        for r in records
    ):
        raise SystemExit(f"no interrupted record in {journal}")
    print(
        "resume smoke ok: interrupted after "
        f"{groups_before} group(s), replayed {verdicts[-1]['replayed']}, "
        f"executed {verdicts[-1]['executed']}, gate passed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
