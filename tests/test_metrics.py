import shlex
import sys

import pytest

from wstack.metrics import MeterError, PlatformCounterMeter


def test_counter_command_prints_the_reading():
    cmd = f"{shlex.quote(sys.executable)} -c 'print(12.5)'"
    assert PlatformCounterMeter(counter_command=cmd).read_counter() == 12.5


def test_counter_command_runs_without_a_shell(tmp_path):
    marker = tmp_path / "marker"
    meter = PlatformCounterMeter(counter_command=f"echo 3; touch {shlex.quote(str(marker))}")
    # echo receives "3;", "touch" and the path as arguments and prints them.
    with pytest.raises(MeterError):
        meter.read_counter()
    assert not marker.exists()


@pytest.mark.parametrize("cmd", ["", "   "])
def test_empty_counter_command_is_no_source(cmd):
    with pytest.raises(MeterError, match="no configured source"):
        PlatformCounterMeter(counter_command=cmd).read_counter()
