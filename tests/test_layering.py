"""Lint-style guard: the substrates never import the verifier.

``repro.verify`` sits on top of both substrates: it builds their
configurations from a fault schedule and checks what they did.  Faults
themselves are a core type (``repro.core.faults``), so nothing under
``core/``, ``simulation/`` or ``runtime/`` has a reason to reach up into
``repro.verify``; doing so would make the checker part of the system it
checks.  This test greps those packages and fails on any such import.
"""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: packages that must stay below the verifier
LOWER_LAYERS = ("core", "simulation", "runtime")

#: ``import repro.verify...``, ``from repro.verify... import ...`` or
#: ``from repro import verify``
FORBIDDEN = re.compile(r"^\s*((from|import)\s+repro\.verify\b"
                       r"|from\s+repro\s+import\s+.*\bverify\b)")


def test_substrates_do_not_import_verify():
    offenders = []
    for package in LOWER_LAYERS:
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            relative = path.relative_to(SRC).as_posix()
            text = path.read_text(encoding="utf-8")
            for number, line in enumerate(text.splitlines(), start=1):
                if FORBIDDEN.search(line):
                    offenders.append("%s:%d: %s" % (relative, number,
                                                    line.strip()))
    assert not offenders, (
        "core/simulation/runtime must not import repro.verify:\n"
        + "\n".join(offenders))


def test_lower_layers_are_where_we_think_they_are():
    # Guard the guard: a moved package must not let the grep pass over
    # an empty directory.
    for package in LOWER_LAYERS:
        assert (SRC / "repro" / package / "__init__.py").is_file()
