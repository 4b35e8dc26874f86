import pytest

from cayleyprop.cayley import CACHE_ENV_VAR


@pytest.fixture(autouse=True)
def hermetic_default_cache(tmp_path_factory, monkeypatch):
    """Point the default Cayley cache, the one a caller gets without a
    directory or --cache-dir, at one temp dir shared by the session, so no
    test reads or writes the user's ~/.cache/cayleyprop."""
    cache_dir = tmp_path_factory.getbasetemp() / "default-cayley-cache"
    monkeypatch.setenv(CACHE_ENV_VAR, str(cache_dir))
