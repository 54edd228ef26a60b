"""Per-rule fixture coverage: every rule proves a true positive and
stays quiet on the idiomatic clean version of the same code."""

import ast
from pathlib import Path

from repro.lint import RULES, ModuleContext
from repro.lint.wire import WireExhaustivenessRule

FIXTURES = Path(__file__).parent / "fixtures"


def load(name, module=""):
    path = FIXTURES / name
    source = path.read_text(encoding="utf-8")
    return ModuleContext(
        path=str(path), module=module, source=source, tree=ast.parse(source)
    )


def run_rule(code, fixture, module=""):
    return RULES[code].check_module(load(fixture, module))


class TestREP001Determinism:
    def test_true_positives(self):
        findings = run_rule("REP001", "rep001_bad.py")
        assert len(findings) == 10
        blob = "\n".join(f.message for f in findings)
        for needle in (
            "random.random()",
            "secrets.token_bytes()",
            "os.urandom()",
            "uuid.uuid4()",
            "time.time()",
            "datetime.now()",
            "randint() (from random)",
            "wall_clock() (from time)",
            "unordered set",
        ):
            assert needle in blob, f"missing finding for {needle}"
        assert sum("unordered set" in f.message for f in findings) == 2

    def test_clean(self):
        assert run_rule("REP001", "rep001_clean.py") == []

    def test_scope_exempts_bench_but_not_protocol(self):
        rule = RULES["REP001"]
        assert rule.applies_to("repro.crypto.pedersen")
        assert rule.applies_to("repro.net.aio")
        assert rule.applies_to("repro.core.messages")
        assert not rule.applies_to("repro.bench.runner")
        assert not rule.applies_to("repro.utils.rng")
        # Standalone files (no repro module) always checked.
        assert rule.applies_to("")


class TestREP002WireExhaustiveness:
    def pair(self, messages, serialization):
        rule = RULES["REP002"]
        assert isinstance(rule, WireExhaustivenessRule)
        return rule.check_pair(
            load(messages, module="repro.core.messages"),
            load(serialization, module="repro.crypto.serialization"),
        )

    def test_true_positives(self):
        findings = self.pair(
            "rep002_messages_bad.py", "rep002_serialization_bad.py"
        )
        messages = "\n".join(f.message for f in findings)
        assert "OrphanMessage has no codec entry" in messages
        assert "duplicate wire tag b'ping'" in messages
        assert "GhostMessage" in messages
        # The orphan finding anchors at the class definition line in the
        # messages module, not somewhere in the registry.
        orphan = next(f for f in findings if "OrphanMessage" in f.message)
        assert orphan.path.endswith("rep002_messages_bad.py")
        assert "class OrphanMessage" in orphan.code

    def test_clean(self):
        assert self.pair(
            "rep002_messages_clean.py", "rep002_serialization_clean.py"
        ) == []

    def test_real_repo_registry_is_exhaustive(self):
        """The live invariant: every message in core.messages has a codec."""
        import repro.core.messages as messages_mod
        import repro.crypto.serialization as serial_mod

        rule = RULES["REP002"]
        findings = rule.check_pair(
            load_real(messages_mod.__file__, "repro.core.messages"),
            load_real(serial_mod.__file__, "repro.crypto.serialization"),
        )
        assert findings == []

    def test_counterpart_loaded_from_disk(self):
        """Linting only messages.py still runs the cross-module check."""
        import repro.core.messages as messages_mod

        rule = RULES["REP002"]
        findings = rule.check_project(
            [load_real(messages_mod.__file__, "repro.core.messages")]
        )
        assert findings == []


def load_real(path, module):
    source = Path(path).read_text(encoding="utf-8")
    return ModuleContext(
        path=str(path), module=module, source=source, tree=ast.parse(source)
    )


class TestREP003AsyncHygiene:
    def test_true_positives(self):
        findings = run_rule("REP003", "rep003_bad.py")
        blob = "\n".join(f.message for f in findings)
        assert "time.sleep()" in blob
        assert ".recv()" in blob
        assert "SocketTransport.connect()" in blob
        assert "SocketTransport(...)" in blob
        assert ".accept()" in blob
        assert len(findings) == 5

    def test_clean(self):
        assert run_rule("REP003", "rep003_clean.py") == []


class TestREP004AbortAttribution:
    def test_true_positives(self):
        findings = run_rule("REP004", "rep004_bad.py")
        blob = "\n".join(f.message for f in findings)
        assert "ProtocolAbort raised without party=" in blob
        assert "EarlyExit raised without party=" in blob
        assert "bare except" in blob
        assert sum("except Exception" in f.message for f in findings) == 2
        assert len(findings) == 5

    def test_clean(self):
        assert run_rule("REP004", "rep004_clean.py") == []


class TestREP005ResourceLifecycle:
    def test_true_positives(self):
        findings = run_rule("REP005", "rep005_bad.py")
        by_message = "\n".join(f.message for f in findings)
        assert "'transport' is released only on the straight-line path" in by_message
        assert "'listener' is acquired here but never released" in by_message
        assert "'worker_process' is released only on the straight-line path" in by_message
        assert len(findings) == 3

    def test_clean(self):
        assert run_rule("REP005", "rep005_clean.py") == []

    def test_pr5_regression_shape(self):
        """The literal bug class PR 5 fixed by hand in the socket
        launcher: children started, accept raises, nothing terminates
        them."""
        source = (
            "def start(context, targets, accept):\n"
            "    processes = [context.Process(target=t) for t in targets]\n"
            "    for process in processes:\n"
            "        process.start()\n"
            "    accept()  # ProtocolAbort on timeout => orphaned children\n"
            "    return processes\n"
        )
        ctx = ModuleContext(
            path="snippet.py", module="", source=source, tree=ast.parse(source)
        )
        findings = RULES["REP005"].check_module(ctx)
        assert len(findings) == 1
        assert "'process'" in findings[0].message


class TestRuleCatalog:
    def test_all_five_rules_registered(self):
        assert sorted(RULES) == [
            "REP001", "REP002", "REP003", "REP004", "REP005",
        ]

    def test_descriptions_nonempty(self):
        for rule in RULES.values():
            assert rule.name and rule.description
