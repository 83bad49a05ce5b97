from bfk.campaigns import resolve_cache_dir


def test_resolve_cache_dir(monkeypatch, tmp_path):
    monkeypatch.delenv("BFK_CACHE_DIR", raising=False)
    assert resolve_cache_dir(None) is None
    assert resolve_cache_dir(tmp_path) == str(tmp_path)
    monkeypatch.setenv("BFK_CACHE_DIR", "/somewhere")
    assert resolve_cache_dir(None) == "/somewhere"
    assert resolve_cache_dir(tmp_path) == str(tmp_path)
