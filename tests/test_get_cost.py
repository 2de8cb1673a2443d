"""`tools/get_cost.py`: one short measurement of each kind on TS3."""

import importlib.util
import json
from pathlib import Path

import pytest

from ldsim import server

TOOL = Path(__file__).resolve().parent.parent / "tools" / "get_cost.py"
_spec = importlib.util.spec_from_file_location("get_cost", TOOL)
get_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(get_cost)

pytestmark = pytest.mark.usefixtures("close_clients")


def test_one_epoch_of_each_measurement(capsys):
    handle = server._Handler.handle
    assert get_cost.main(["--threads", "2", "--fanouts", "2", "--epochs", "1"]) == 0
    assert server._Handler.handle is handle  # the handler clock is taken off
    per_get, epoch = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert per_get["threads"] == 2 and per_get["gets"] == epoch["gets"] == 448
    assert per_get["client_cpu_us"] > 0 and per_get["handler_cpu_us"] > 0
    assert epoch["fanout"] == 2 and epoch["epoch_p50_ms"] > 0
