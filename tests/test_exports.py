import avmlar


def test_public_names_resolve_and_are_listed_once():
    names = avmlar.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(avmlar, name)]
    assert missing == []
