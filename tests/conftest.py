import pytest

from ldsim.httpclient import LdClient


@pytest.fixture()
def close_clients(monkeypatch):
    """Close every `LdClient` the test makes once it ends. Modules that make
    clients by hand use it, so that the ResourceWarnings pytest reports (see
    `filterwarnings` in pyproject.toml) point at sockets ldsim itself leaks."""
    made = []
    init = LdClient.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(LdClient, "__init__", tracking)
    yield
    for client in made:
        client.close_all()
