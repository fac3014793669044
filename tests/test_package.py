import movability


def test_public_names_resolve():
    for name in movability.__all__:
        assert getattr(movability, name, None) is not None, name
