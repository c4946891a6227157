"""CLI-level resilience: Ctrl-C exits 130 with one clean line."""

import repro.cli as cli
from repro.cli import main


class TestKeyboardInterrupt:
    def test_ctrl_c_exits_130_with_one_clean_line(self, capsys, monkeypatch):
        def boom(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dispatch", boom)
        code = main(["table1"])
        captured = capsys.readouterr()
        assert code == 130
        assert captured.out == ""
        assert "interrupted" in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1
