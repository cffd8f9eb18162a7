import excol

REMOVED = ("SerreMatrix",)


def test_every_exported_name_resolves():
    missing = [name for name in excol.__all__ if not hasattr(excol, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(excol.__all__) == len(set(excol.__all__))


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in excol.__all__
        assert not hasattr(excol, name)
