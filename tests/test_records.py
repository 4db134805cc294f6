"""The package's records are immutable: no field can be assigned."""

import inspect

import pytest

from cointoss import analysis, forms, protocol, qstate, random_bob, strategies

ALICE = strategies.optimal_alice(0)
BOB = strategies.parse_strategy_id("random-bob:7")
TREE = protocol.build_tree(ALICE, 0)

# (module, record class, a function making one, a field to assign).
RECORDS = [
    (qstate, "StateVector", lambda: ALICE.initial_state, "amplitudes"),
    (strategies, "LocalOperation", lambda: BOB.operation, "matrix"),
    (strategies, "AliceCheatStrategy", lambda: ALICE, "name"),
    (strategies, "BobCheatStrategy", lambda: BOB, "announce_rule"),
    (analysis, "TranscriptRecord", lambda: analysis.walk(TREE, 0)[1][0], "index"),
    (protocol, "ProtocolTree", lambda: TREE, "root"),
    (protocol, "Branch", lambda: TREE.root, "children"),
]


def test_every_record_is_listed():
    # Every NamedTuple the package defines is a record.
    defined = {
        (module, name)
        for module in (analysis, forms, protocol, qstate, random_bob, strategies)
        for name, value in vars(module).items()
        if inspect.isclass(value)
        and issubclass(value, tuple)
        and value.__module__ == module.__name__
    }
    assert defined == {(module, name) for module, name, _, _ in RECORDS}


@pytest.mark.parametrize(
    "module,name,make,field", RECORDS, ids=[name for _, name, _, _ in RECORDS]
)
def test_assigning_a_field_raises(module, name, make, field):
    record = make()
    assert type(record) is getattr(module, name)
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before
