import json

import numpy as np

import output_ledger


def test_outputs_match_the_ledger(tmp_path):
    # every byte each command writes on the ledger's configs is recorded;
    # a change that moves one must rewrite the ledger on purpose
    recorded = json.loads(output_ledger.LEDGER.read_text())
    running = output_ledger.regenerate(tmp_path)
    differ = sorted(name for name in recorded["files"].keys() | running.keys()
                    if recorded["files"].get(name) != running.get(name))
    assert differ == [], (
        f"{len(differ)} files differ from the ledger: {', '.join(differ)} "
        f"(recorded under numpy {recorded['numpy']}, running numpy "
        f"{np.__version__})")
