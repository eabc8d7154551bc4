"""Access to the frozen seed gadget shipped with the package.

The seed is the one search result the whole construction grows from.
It lives under ``data/`` as a JSON file whose name carries the graph's
canonical digest; loading re-derives the digest and refuses a file that
doesn't match its own name.
"""

from __future__ import annotations

from importlib import resources
from typing import TYPE_CHECKING

from .canon import canonical_digest
from .errors import CertificateError
from .formats import parse_json_payload, strict_object
from .gadgets import TerminalGadget, gadget_from_json_dict

if TYPE_CHECKING:  # pragma: no cover
    from importlib.resources.abc import Traversable

_SEED_PREFIX = "seed-"


def seed_data_path() -> Traversable:
    """The packaged frozen seed file, as a resource entry that reads the
    same from a directory or a zip."""
    data_dir = resources.files(__package__) / "data"
    matches = [
        entry
        for entry in data_dir.iterdir()
        if entry.name.startswith(_SEED_PREFIX) and entry.name.endswith(".json")
    ]
    if len(matches) != 1:
        raise CertificateError(
            f"expected exactly one {_SEED_PREFIX}*.json data file,"
            f" found {len(matches)}"
        )
    return matches[0]


def load_seed_gadget() -> TerminalGadget:
    """Load the frozen seed and check it against its recorded digest."""
    path = seed_data_path()
    payload = parse_json_payload(path.read_bytes())
    gadget = gadget_from_json_dict(payload)
    digest = canonical_digest(gadget.graph)
    expected = path.name[len(_SEED_PREFIX) : -len(".json")]
    if digest != expected:
        raise CertificateError(
            f"seed digest {digest} does not match file name {path.name}"
        )
    verification = strict_object(payload.get("verification", {}), "verification")
    recorded = verification.get("digest")
    if recorded is not None and recorded != digest:
        raise CertificateError(
            f"seed digest {digest} does not match recorded digest {recorded}"
        )
    return gadget
