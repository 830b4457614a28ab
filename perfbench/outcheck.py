"""The output check: every record against the digest captured for it.

Expected digests live in ``expected/<workload>.json`` as
``{"digests": {spec label: digest}}``.  They were captured with
``run.py --capture`` on the code the benchmark was written against, so
a mismatch means a change altered a ``RunRecord``.  The digest is a
SHA-256 of the record's canonical JSON, computed here rather than with
the program's own hashing so that the check does not depend on the code
it checks.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def record_digest(record) -> str:
    text = json.dumps(record.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(path: Path) -> Dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(json.load(fh)["digests"])


def save_expected(path: Path, workload: str,
                  digests: Dict[str, str], provenance: Dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"workload": workload, "captured_with": provenance,
               "digests": dict(sorted(digests.items()))}
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def check_item(label: str, item, expected: Dict[str, str]) -> Optional[str]:
    """Why one streamed item fails the check, or ``None`` if it passes.

    ``item`` is a ``RunRecord`` or a ``RunError`` from ``Runner.stream``.
    """
    if not hasattr(item, "loops"):
        return f"raised {item.error_type}: {item.message}"
    want = expected.get(label)
    if want is None:
        return "no expected digest captured for this spec"
    got = record_digest(item)
    if got != want:
        return f"record digest {got} != expected {want}"
    return None


def check_items(pairs: Iterable[Tuple[str, object]],
                expected: Dict[str, str]) -> List[Tuple[str, str]]:
    """``(label, reason)`` for every failing ``(label, item)`` pair."""
    failures = []
    for label, item in pairs:
        reason = check_item(label, item, expected)
        if reason is not None:
            failures.append((label, reason))
    return failures
