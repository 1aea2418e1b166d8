import hccasim


def test_every_exported_name_resolves():
    assert [name for name in hccasim.__all__ if not hasattr(hccasim, name)] == []
