"""Every function the traced benchmark wraps still exists in the program.

`perfbench/spans.py` names them as strings; a rename in `src/` would
otherwise only show when a traced run fails to install its wrappers.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_resolves_in_the_program():
    traced = _traced()
    assert traced
    for short, names in traced.items():
        module = importlib.import_module(f"seqveritas.{short}")
        for dotted in names:
            owner = module
            for part in dotted.split("."):
                assert hasattr(owner, part), f"seqveritas.{short}.{dotted}"
                owner = getattr(owner, part)
            assert callable(owner), f"seqveritas.{short}.{dotted}"
