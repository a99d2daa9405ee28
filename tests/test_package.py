"""The package's export list."""
import trigonal


def test_every_exported_name_resolves_once():
    assert len(trigonal.__all__) == len(set(trigonal.__all__))
    missing = [name for name in trigonal.__all__ if not hasattr(trigonal, name)]
    assert missing == []
