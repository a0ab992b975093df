"""The package's public surface."""

import capmimo


def test_public_names_resolve_unique_sorted():
    names = capmimo.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(capmimo, name), name


def test_removed_names_stay_gone():
    for name in ("ZeroTraceError", "mi_intermediate", "logdet_one_plus_scaled"):
        assert name not in capmimo.__all__
        assert not hasattr(capmimo, name), name
