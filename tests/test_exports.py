import latzeta


def test_every_exported_name_resolves():
    missing = [name for name in latzeta.__all__ if not hasattr(latzeta, name)]
    assert missing == []
