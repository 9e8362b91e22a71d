import gausscode


def test_all_is_sorted_and_resolves():
    assert gausscode.__all__ == sorted(gausscode.__all__)
    for name in gausscode.__all__:
        assert getattr(gausscode, name) is not None
