import boardpile

# names the package exported once and no longer does
REMOVED = (
    "multinomial",
    "ordered_bell",
    "enable_fire_audit",
    "get_fire_audit",
    "disable_fire_audit",
    "from_edge_list",
    "equivalent",
    "validate",
)


def test_every_exported_name_resolves():
    missing = [name for name in boardpile.__all__ if not hasattr(boardpile, name)]
    assert missing == []
    assert len(set(boardpile.__all__)) == len(boardpile.__all__)


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in boardpile.__all__
        assert not hasattr(boardpile, name)
