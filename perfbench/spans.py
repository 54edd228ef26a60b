"""In-memory span tracing around the program's public layer functions.

The benchmark does not edit the program to trace it.  :class:`Tracer`
swaps wrappers in for the public functions listed in :data:`TARGETS`
(class methods on their class, module functions in every loaded
``repro`` module that imported them by name, so callers that resolved
the name at import time are covered too) and puts the originals back on
:meth:`Tracer.uninstall`.

Each wrapped call records one span ``(name, start, end, parent,
session)``: ``parent`` is the index of the enclosing span (``-1`` at the
top), ``session`` the benchmark's session index.  Spans stay in memory
until :meth:`Tracer.write` stores them as gzipped JSON lines.
:func:`summarize` turns spans into per-name call counts, *self* time
(duration minus the part covered by child spans, so a Σ-proof inside
the prover's coin phase is counted once) and *inclusive* time (counted
only on the outermost span of a name, so recursion is not double
counted).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from stats import covered

# Where traced runs leave their spans (inside the checkout, git-ignored).
TRACE_DIR = Path(__file__).resolve().parent.parent / ".perfbench" / "traces"

# (span name, module, attribute path, counter hook).  A hook receives
# (tracer, args, kwargs, result, raised) and adds layer counters.


def _multiexp_terms(tracer, args, kwargs, result, raised):
    bases = args[1] if len(args) > 1 else kwargs.get("bases", ())
    tracer.add("crypto.multiexp.terms", len(bases))


def _batch_outcome(tracer, args, kwargs, result, raised):
    tracer.add("sigma.batch_verify.ok", 0 if raised else 1)


def _morra_bits(tracer, args, kwargs, result, raised):
    tracer.add("mpc.morra.bits", args[2] if len(args) > 2 else kwargs.get("count", 0))


def _encoded_bytes(tracer, args, kwargs, result, raised):
    if not raised:
        tracer.add("codec.encode.bytes", len(result))


TARGETS = (
    ("crypto.commit", "repro.crypto.pedersen", "PedersenParams.commit", None),
    ("crypto.commit", "repro.crypto.pedersen", "PedersenParams.commit_many", None),
    ("crypto.opens_to", "repro.crypto.pedersen", "PedersenParams.opens_to", None),
    ("crypto.multiexp", "repro.crypto.multiexp", "multi_exponentiation", _multiexp_terms),
    ("crypto.params", "repro.api.queries", "CountQuery.build_params", None),
    ("sigma.prove_bit", "repro.crypto.sigma.or_bit", "prove_bit", None),
    ("sigma.batch_verify", "repro.crypto.sigma.batch", "SigmaBatch.verify", _batch_outcome),
    ("core.prover.coins", "repro.core.prover", "Prover.commit_coins", None),
    ("core.prover.coins", "repro.core.prover", "Prover.commit_coin_chunk", None),
    ("core.prover.receive_share", "repro.core.prover", "Prover.receive_client_share", None),
    ("core.verifier.clients", "repro.core.verifier", "PublicVerifier.validate_clients", None),
    (
        "core.verifier.coins",
        "repro.core.verifier",
        "PublicVerifier.verify_all_coin_commitments",
        None,
    ),
    ("core.verifier.coins", "repro.core.verifier", "PublicVerifier.verify_coin_chunk", None),
    ("core.verifier.coins", "repro.core.verifier", "PublicVerifier.finish_coin_stream", None),
    ("mpc.morra", "repro.mpc.morra", "run_morra_batch", _morra_bits),
    ("mpc.bus", "repro.mpc.bus", "SimulatedNetwork.send", None),
    ("mpc.bus", "repro.mpc.bus", "SimulatedNetwork.broadcast", None),
    ("codec.encode", "repro.crypto.serialization", "encode_message", _encoded_bytes),
)


_INHERITED = object()


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.session = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # Recording ---------------------------------------------------------------

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] += value

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.session])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one benchmark-level span around the ``with`` body."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, original, hook):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            raised = False
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException:
                raised = True
                raise
            finally:
                tracer._close(index)
                if hook is not None:
                    hook(tracer, args, kwargs, result, raised)

        traced.__perfbench_original__ = original
        return traced

    # Installing --------------------------------------------------------------

    def install(self) -> None:
        """Swap every target for its traced wrapper."""
        for name, module_name, path, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = getattr(owner, attr)
                self._patch(owner, attr, self._wrap(name, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hook)
            for loaded in list(sys.modules.values()):
                if (
                    getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, attr, None) is original
                ):
                    self._patch(loaded, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        # An inherited method is shadowed on ``owner`` and later deleted,
        # so the class looks exactly as before once tracing ends.
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original, including names a module imported from
        a patched module while the wrappers were in place."""
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                original = getattr(value, "__perfbench_original__", None)
                if original is not None:
                    setattr(loaded, attr, original)

    # Output ------------------------------------------------------------------

    def write(self, workload: str, seed: int) -> Path:
        """Store every span as one JSON line (gzip) under ``TRACE_DIR``."""
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = TRACE_DIR / f"{workload}-seed{seed}.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for name, start, end, parent, session in self.spans:
                out.write(json.dumps([name, start, end, parent, session]) + "\n")
        return path


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``incl_s`` (see module doc)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    )
    for index, (name, start, end, parent, _) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        duration = end - start
        entry["self_s"] += duration - covered(children.get(index, ()))
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["incl_s"] += duration
    return dict(out)
