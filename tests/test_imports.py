"""Every module of the package uses each name it imports (the check an
unused-import lint rule would make), parses as the oldest Python that
pyproject.toml declares, writes JSON only through transcript._dumps and
checks numbers only through gf2, on the standard library's ast; the
record's names in protocol are transcript's own; and runs and
transcripts leave numpy.ma unimported."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qotsim

MODULES = sorted(Path(qotsim.__file__).parent.glob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    """The bare names the module reads, plus those it re-exports in
    __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert not unused, f"{path.name} imports {unused} without using them"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_module_parses_as_the_oldest_declared_python(path):
    """pyproject.toml declares requires-python >= 3.10, so no module may use
    newer syntax, such as except*, even where the suite runs on a newer
    interpreter."""
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


JSON_ENCODERS = {"dump", "dumps", "JSONEncoder"}


def json_encoders(tree):
    """The line of each json encoder a module names: json.dump, json.dumps
    or json.JSONEncoder, read or imported from json."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in JSON_ENCODERS
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            yield from (node.lineno for alias in node.names if alias.name in JSON_ENCODERS)


def test_transcript_dumps_is_the_only_json_encoder():
    """Every transcript and CLI artifact is the text _dumps writes; an
    encoder built or called anywhere else could write other bytes."""
    found = {path.stem: list(json_encoders(ast.parse(path.read_text()))) for path in MODULES}
    tree = ast.parse((Path(qotsim.__file__).parent / "transcript.py").read_text())
    dumps = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and [getattr(target, "id", None) for target in node.targets] == ["_dumps"]]
    assert {stem: lines for stem, lines in found.items() if lines} == {"transcript": dumps}
    assert len(dumps) == 1


RECORD_NAMES = ("TEST_FAILED", "SET_SHORTAGE", "Mode", "ChannelModel", "ProtocolParams",
                "PositionMap", "Transcript")


def test_protocol_takes_the_record_from_transcript():
    """The run's record is defined once, in transcript: each of its public
    names in protocol and in the package is the same object, and protocol
    imports no json, so it writes and reads no text of its own."""
    from qotsim import protocol, transcript

    for name in RECORD_NAMES:
        assert getattr(protocol, name) is getattr(transcript, name), name
    for name in ("ChannelModel", "Mode", "ProtocolParams", "Transcript"):
        assert getattr(qotsim, name) is getattr(transcript, name), name
    tree = ast.parse((Path(qotsim.__file__).parent / "protocol.py").read_text())
    assert "json" not in set(imported_names(tree))
    defined = {node.name for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    defined.update(target.id for node in tree.body if isinstance(node, ast.Assign)
                   for target in node.targets if isinstance(target, ast.Name))
    assert not defined & set(vars(transcript))


NUMBER_CHECKS = {("math", "isfinite"), ("np", "isfinite"), ("numpy", "isfinite"),
                 ("sys", "float_info")}


def number_checks(node, where="<module>"):
    """The function (or <module>) around each math.isfinite, np.isfinite
    or sys.float_info a module reads or imports."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from number_checks(child, child.name)
            continue
        if (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                and (child.value.id, child.attr) in NUMBER_CHECKS):
            yield where
        elif isinstance(child, ast.ImportFrom):
            yield from (where for alias in child.names if (child.module, alias.name) in NUMBER_CHECKS)
        yield from number_checks(child, where)


def test_gf2_owns_the_number_rule():
    """Real operands are checked by gf2.number and gf2.numbers alone: no
    other module calls a finiteness check."""
    found = {path.stem: list(number_checks(ast.parse(path.read_text()))) for path in MODULES}
    assert {stem: where for stem, where in found.items() if where and stem != "gf2"} == {}
    assert found["gf2"]



NUMPY_MA_PROBE = """
import sys
from qotsim import attacks, protocol
from qotsim.protocol import Mode, ProtocolParams, Transcript

strategies = [attacks.honest(), attacks.random_ok(), attacks.fixed_basis(0.3),
              attacks.store_subset(positions=[5, 1, 5, 3]), attacks.store_subset(count=3)]
for mode in Mode:
    params = ProtocolParams(n=10, m=1, r=0, N=2, delta=0.3, noise_p=0.1, mode=mode, seed=3)
    runs = [protocol.run_string_qot(params, [1], bob=bob, announce_rest=True) for bob in strategies]
    runs.append(protocol.run_qkd(params, eve=attacks.fixed_basis(0.3), announce_rest=True))
    for tr in runs:
        text = tr.to_json()
        assert Transcript.from_json(text).to_json() == text
print("numpy.ma" in sys.modules)
"""


def test_runs_and_transcripts_leave_numpy_ma_unimported():
    """numpy 2's np.unique imports numpy.ma, about 1.7 MB: building every
    strategy kind, running one transcript of each in both modes, writing
    and reading them back call no np.unique."""
    env = {**os.environ, "PYTHONPATH": str(Path(qotsim.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "False"
