"""``tools/line_trace.py`` on a temporary module; the suite itself is not run again."""
import importlib.util

from tools.line_trace import run_traced, unrun_lines

MODULE = '''\
def sign(x):
    if x < 0:
        return -1
    return 1


if __name__ == "__main__":
    print(sign(-1))
'''


def test_reports_exactly_the_branch_not_taken(tmp_path):
    package = (tmp_path / "pkg").resolve()
    package.mkdir()
    path = package / "mod.py"
    path.write_text(MODULE)

    def run():
        spec = importlib.util.spec_from_file_location("line_trace_probe", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.sign(2)

    result, ran = run_traced(run, package)
    assert result == 1
    # line 3 is the branch never taken; the script block (line 8) runs only as a script
    assert unrun_lines(package, ran) == [(path, 3)]
