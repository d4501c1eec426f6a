import disruptkit


def test_every_exported_name_resolves():
    assert sorted(set(disruptkit.__all__)) == sorted(disruptkit.__all__)
    missing = [name for name in disruptkit.__all__ if not hasattr(disruptkit, name)]
    assert missing == []
