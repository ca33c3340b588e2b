import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_and_writes_its_figure(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    figures = list(tmp_path.glob("*.svg"))
    assert len(figures) == 1 and figures[0].read_text().endswith("</svg>\n")
    assert f"wrote {figures[0].name}" in capsys.readouterr().out
