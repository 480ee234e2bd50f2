import surfrec


def test_every_exported_name_resolves():
    missing = [name for name in surfrec.__all__ if not hasattr(surfrec, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(surfrec.__all__) == len(set(surfrec.__all__))
