import pytest

from toricreg import caps


@pytest.fixture(autouse=True)
def default_caps(monkeypatch):
    """Every test starts from the default caps, whatever the shell
    exports; a test that needs a cap sets it with monkeypatch."""
    monkeypatch.delenv(caps.ENV_VAR, raising=False)
