import importlib
import importlib.util
from pathlib import Path

TRACED_STAGE = Path(__file__).resolve().parent.parent / "perfbench" / "traced_stage.py"


def test_traced_stage_targets_resolve():
    # a target the package no longer has would record no benchmark spans
    spec = importlib.util.spec_from_file_location("traced_stage", TRACED_STAGE)
    traced_stage = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_stage)
    missing = []
    for targets, _ in traced_stage.TARGETS.values():
        for modname, attr in targets:
            holder = importlib.import_module(f"{traced_stage.PACKAGE}.{modname}")
            owner, _, name = attr.rpartition(".")
            if owner:
                holder = getattr(holder, owner, None)
            if holder is None or vars(holder).get(name) is None:
                missing.append(f"{modname}.{attr}")
    assert missing == []
