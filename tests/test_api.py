import chiralmeta


def test_exports_resolve():
    missing = [name for name in chiralmeta.__all__ if not hasattr(chiralmeta, name)]
    assert not missing


def test_exports_unique():
    names = chiralmeta.__all__
    assert len(set(names)) == len(names)
