"""The check that a run directory still matches its manifest, kept out of
the package: the command line only writes manifests (``compare`` checks
one series against its digest itself)."""

from __future__ import annotations

import json
from pathlib import Path

from corrvec.store import sha256_of_file


def verify_manifest(out_dir: str | Path) -> list[str]:
    """Return the files whose digest no longer matches (empty = intact)."""
    out_dir = Path(out_dir)
    with open(out_dir / "manifest.json") as fh:
        data = json.load(fh)
    bad = []
    for rel, digest in data["files"].items():
        target = out_dir / rel
        if not target.exists() or sha256_of_file(target) != digest:
            bad.append(rel)
    return bad
