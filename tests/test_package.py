import homspace


def test_every_export_resolves():
    # a deletion that leaves its name in __all__ breaks `from homspace import *`
    missing = [name for name in homspace.__all__ if not hasattr(homspace, name)]
    assert missing == []
    assert len(set(homspace.__all__)) == len(homspace.__all__)
