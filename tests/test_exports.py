"""The package's public names all resolve."""

import limitcurves


def test_every_export_resolves():
    missing = [name for name in limitcurves.__all__ if not hasattr(limitcurves, name)]
    assert missing == []
    assert len(set(limitcurves.__all__)) == len(limitcurves.__all__)
    assert "ValidationReport" not in limitcurves.__all__
    assert not hasattr(limitcurves, "ValidationReport")
