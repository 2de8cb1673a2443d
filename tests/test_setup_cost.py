"""`tools/setup_cost.py`: one set-up and dry run of a small building."""

import gc
import importlib.util
import json
from dataclasses import replace
from pathlib import Path

from ldsim import bench, rdf
from ldsim.building import GeneratorParams, generate_synthetic
from ldsim.ns import DEFAULT_BASE
from ldsim.rdfio import serialize_triples

TOOL = Path(__file__).resolve().parent.parent / "tools" / "setup_cost.py"
_spec = importlib.util.spec_from_file_location("setup_cost", TOOL)
setup_cost = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(setup_cost)


def test_one_repeat_on_a_small_building(tmp_path, capsys):
    small = replace(GeneratorParams(), rooms=4, floors=1, wings=1, lighting_systems=3,
                    systems_with_occupancy=2, systems_with_command=2,
                    systems_with_luminance=1, rooms_with_occupancy=2,
                    rooms_with_command=2, rooms_with_luminance=1,
                    command_points=2, luminance_points=1, hygiene_lights=0)
    source = tmp_path / "building.ttl"
    source.write_text(serialize_triples(generate_synthetic(small))
                      .replace(f"<{DEFAULT_BASE}", "<"))
    wrapped = (bench.build_dataset, bench.load_task, rdf._built_index)
    callbacks = list(gc.callbacks)
    argv = ["--task", "TC6", "--repeats", "1", "--slots", "4", "--source", str(source)]
    assert setup_cost.main(argv) == 0
    # The clocks are taken off again.
    assert (bench.build_dataset, bench.load_task, rdf._built_index) == wrapped
    assert gc.callbacks == callbacks
    row, total = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert row["repeat"] == 0 and total["total"] and total["repeats"] == 1
    for key in ("build_ms", "load_task_ms", "index_ms", "serve_ms", "dry_run_ms", "cpu_ms"):
        assert row[key] > 0 and total[key] == row[key], key
    assert row["serve_ms"] >= row["build_ms"] + row["load_task_ms"]
    assert row["dry_run_ms"] >= row["index_ms"]
    assert len(row["gc_ms"]) == len(row["collections"]) == 3
    assert all(n >= 0 for n in row["collections"])
