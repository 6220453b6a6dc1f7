"""Each distinct part of a document is read and law-checked once, and no
command changes what it read.

Within one read, equal sub-documents of a kind parse to one shared object, so
the law checks of ``hpk.jsonio`` run once per distinct part and an owner's
check does not re-run the checks of its parts.  The counts are taken on
documents of the benchmark's ``cli_corpus`` mix.  Shared objects also make
any mutation by a command visible to every place that holds them, so every
command of ``tests/test_golden_outputs.py`` is run with a snapshot of each
object it read, taken when the object was built and compared after the run.
"""

import collections
import importlib.util
import os

import test_golden_outputs as golden
from hpk import jsonio


def _workloads():
    """The benchmark's workloads module, read from its file without running the benchmark."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus_ops(workdir):
    """{command: operation} of round 1 of the ``cli_corpus`` mix at seed 1,
    whose weq document is the identity of constant Z/2 (round 0 plants a
    map that is not a weak equivalence)."""
    workloads = _workloads()
    corpus = workloads.CliCorpus(workloads.import_hpk(), 1, 2, str(workdir))
    return {op.kind: op for op in corpus.round(1)}


def run_counted(op, monkeypatch):
    """(exit code, jsonio.check calls per class, validate calls per class) of one run."""
    checks, validates = collections.Counter(), collections.Counter()
    check = jsonio.check

    def counting_check(obj, *args):
        checks[type(obj).__name__] += 1
        return check(obj, *args)

    monkeypatch.setattr(jsonio, "check", counting_check)
    for cls in jsonio._CHECKS:
        validate = cls.validate

        def counting_validate(self, *args, validate=validate, name=cls.__name__):
            validates[name] += 1
            return validate(self, *args)

        monkeypatch.setattr(cls, "validate", counting_validate)
    code, _ = op.run()
    monkeypatch.undo()
    return code, dict(checks), dict(validates)


def test_each_distinct_part_of_a_corpus_document_is_checked_once(tmp_path, monkeypatch):
    ops = corpus_ops(tmp_path)

    # constant Z/2 on the two-object site, depth 3, mapped by its identity:
    # one site, one level groupoid, one face map (every face and degeneracy is
    # the identity of that groupoid), one simplicial groupoid, one simplicial
    # groupoid map (every restriction and component), one presheaf (source
    # and target) and the transformation; 125 checks before sharing
    code, checks, validates = run_counted(ops["weq"], monkeypatch)
    assert code == 0
    assert checks == validates == {
        "FiniteSite": 1,
        "FiniteGroupoid": 1,
        "GroupoidHom": 1,
        "SimplicialGroupoid": 1,
        "SimplicialGroupoidMap": 1,
        "Presheaf": 1,
        "NaturalTransformation": 1,
    }

    # the circle square of criterion 8, its four legs read as one document:
    # the boundary of Delta^1, Delta^1, the circle and the point each read
    # once, though the legs name each twice (the solver then re-checks the
    # lift it finds, as it always has)
    code, checks, _ = run_counted(ops["lift"], monkeypatch)
    assert code == 0
    assert checks == {"TruncatedSimplicialSet": 4, "SimplicialMap": 4, "LiftingProblem": 1}

    # a constant simplicial groupoid: three equal levels and six equal
    # operator maps
    code, checks, validates = run_counted(ops["wbar"], monkeypatch)
    assert code == 0
    assert checks == validates == {"FiniteGroupoid": 1, "GroupoidHom": 1, "SimplicialGroupoid": 1}


def state(x):
    """A plain-data image of ``x`` and of everything it holds."""
    if isinstance(x, dict):
        return ["dict", [[state(k), state(v)] for k, v in x.items()]]
    if isinstance(x, (list, tuple)):
        return [type(x).__name__, [state(v) for v in x]]
    if isinstance(x, (set, frozenset)):
        return [type(x).__name__, sorted(repr(state(v)) for v in x)]
    if hasattr(x, "__dict__") and not callable(x):
        return [type(x).__name__, state(vars(x))]
    return x


def test_no_golden_command_changes_what_it_read(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HPK_BUDGET", raising=False)
    read = []
    share = jsonio.Reading.share

    def recording_share(self, key, data, build):
        obj = share(self, key, data, build)
        if not any(obj is seen for seen, _ in read):
            read.append((obj, state(obj)))
        return obj

    main = golden.main
    runs = []

    def checked_main(argv):
        read.clear()
        code = main(argv)
        runs.append(argv[0])
        for obj, before in read:
            assert state(obj) == before, f"{argv[0]} changed a {type(obj).__name__} it read"
        return code

    monkeypatch.setattr(jsonio.Reading, "share", recording_share)
    monkeypatch.setattr(golden, "main", checked_main)
    golden._cli_cases(tmp_path, capsys)
    golden._search_cases(tmp_path, capsys)
    for name, (doc, depth) in golden.DOLDKAN_DOCUMENTS.items():
        golden._cli(tmp_path, capsys, name, doc, "doldkan", "--depth", str(depth))
    for name, doc in golden.kind_documents().items():
        for command in golden.GOLDEN_KINDS:
            golden._cli(tmp_path, capsys, name, doc, command)
    capsys.readouterr()
    assert set(runs) == {
        "nerve", "whitehead", "comma", "sheafify", "hsheaf", "weq", "pullback", "lift",
        "geninc", "doldkan", "bounds", "pi0", "validate",
    }
