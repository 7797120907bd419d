"""Monte Carlo realizations of the walk and exact small-n convolutions.

Randomness comes from numpy's Philox 4x64-10 counter-based generator,
keyed by (master seed, replication index): trajectories are bit-identical
across platforms and replications are independent streams that may be
computed in any order.  The estimators and ``trajectories`` step their
replications together, in blocks of up to 1024, each walk on its own
stream, and each walk's float sums are those of stepping it alone, so the
results equal those of stepping one replication at a time.  The
estimators step their runs as batches (``estimate_batch``; each estimator
is a batch of one): on Linux a batch's blocks, in run order, are cut
into groups of about as many blocks, one per CPU in the affinity mask,
each stepped in its own process with the same results (``taskset -c 0``
gives one process), and a process holds one run's stack and drawn
letters at a time.  One letter action serves them and the exact
convolution powers: the step tables of ``_Steps``, built from the
solver's in-factor pair tables.

Letters are drawn a few walks at a time: each walk's 64-bit Philox words
fill one row of a small buffer, and an exact guide table with integer
thresholds maps the rows to letters in one vectorised pass, the letters a
binary search of the cdf would give for the uniforms ``Generator.random``
makes of the words.  Each letter is drawn as its offset in the step
tables, so a step begins with one add of the top cells and the drawn
offsets.  A prefix or hitting walk stops stepping, and drawing, once it
can no longer change what is read, because it has hit or is deeper than
the steps left plus the prefix length; depth moves by at most one a step,
so such a run's stack needs only about half the steps' rows.  A block
ends when none of its walks is left.  Drift reads every step and never
stops early.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import threading
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .groups import FreeProduct, LengthTable, Letter, StateBudgetError, Word, natural_lengths
from .traffic import StepDistribution, letter_tables

CONVOLUTION_BUDGET = 1_000_000
# cells of a block's stacks, of a recorded series or of the walks' results;
# criterion 12's drift run takes 2e6
STACK_BUDGET = 100_000_000


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One realization: per-step lengths |X_0|..|X_steps| and the final word."""

    lengths: np.ndarray
    final: Word


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with standard error over independent replications."""

    estimate: float
    stderr: float
    replications: int
    horizon: int
    note: str = ""


def check_sizes(steps: int, reps: int, prefix_len: int | None = None, recorded: int = 0) -> None:
    """Reject a Monte Carlo run with steps < 1, reps < 2 or prefix_len < 1, or too large to hold.

    ``prefix_len`` is the deepest cell that a settling run reads: the
    prefix length of ``estimate_prefix``, or 1 for ``estimate_hitting``,
    whose steps are its horizon.  None stands for a run that reads its
    weights at every step, a drift or recorded run.  A block of walks
    keeps ``_stack_depth(steps, prefix_len) + 1`` stack cells per walk:
    steps + 1 for a drift or recorded run, about half that for a settling
    one.  Each of ``recorded`` walks keeps steps + 1 weights, and each of
    the ``reps`` walks keeps prefix_len + 4 results (5 with prefix_len
    None): its depth, weight, hit flag, drift value and prefix cells.
    More than STACK_BUDGET cells of any of these is rejected before
    anything is allocated.
    """
    if steps < 1 or reps < 2:
        raise ValueError(f"need steps >= 1 and reps >= 2, got steps={steps}, reps={reps}")
    if prefix_len is not None and prefix_len < 1:
        raise ValueError(f"prefix_len must be >= 1, got {prefix_len}")
    walks = min(reps, _BLOCK)
    if max((_stack_depth(steps, prefix_len) + 1) * walks, (steps + 1) * recorded) > STACK_BUDGET:
        raise ValueError(f"{steps} steps of {max(walks, recorded)} walks at a time need more than "
                         f"{STACK_BUDGET} cells")
    if ((prefix_len or 1) + 4) * reps > STACK_BUDGET:
        raise ValueError(f"the results of {reps} walks need more than {STACK_BUDGET} cells")


class _Streams:
    """The letters drawn by the walks (seed, stream), one Philox 4x64-10 stream each.

    Walk (seed, stream) maps the 64-bit words of the Philox stream keyed
    [seed, stream] to letters: word w gives letter #{i : cdf[i] <= u} for
    u = (w >> 11) * 2**-53, the uniform that ``Generator.random`` makes of
    it, and the cdf of mu with its last entry set to 1.  One bit generator
    serves every walk: ``words`` resets it to the walk's key and counter,
    which costs a fraction of building a generator.  Counter c yields the
    words 4c .. 4c + 3, so the words from a multiple of 4 on start at
    counter skip / 4.

    ``fill`` fills a few walks' rows of a reusable word buffer and maps
    them to letters in one pass through a guide table (Chen and Asau,
    1974; Devroye, *Non-Uniform Random Variate Generation*, III.2.4), in
    integers: since u lies on the grid of 2**-53, cdf[i] <= u exactly when
    (w >> 11) >= ceil(cdf[i] * 2**53), the value's ``edges`` entry.  Over
    the m distinct cdf values, [0, 1) is cut into ``cells``, a power of two
    near 4m, so the top bits of w give u's cell c.  ``guide[c]`` counts
    the values at most c / cells, a lower bound for u's count, and each of
    ``passes`` steps k += ((w >> 11) >= edge k) moves it up by one while
    value k is at most u; the most values strictly inside one cell bound
    the steps needed.  ``offset_of`` maps the count of distinct values to
    the letter's offset letter * (n + 1) in the step tables (see
    ``_Steps``), where the letter is the count of cdf entries; the two
    counts differ where a letter has no mass.
    """

    def __init__(self, mu: StepDistribution, seed: int, steps: int, walks: int = 1):
        cdf = np.cumsum(mu.probs)
        cdf[-1] = 1.0
        last = np.append(cdf[1:] != cdf[:-1], True)  # the last entry of each distinct value
        n = len(cdf)
        # the least dtype that holds every code, at most n * (n + 1) - 1: top cells have a
        # narrower one, so the add of a top cell and an offset runs in it and cannot wrap
        self.offset_of = (np.append(0, np.flatnonzero(last[:-1]) + 1) * (n + 1)).astype(
            np.min_scalar_type(n * (n + 1) - 1))
        self.cells = 1 << (4 * int(last.sum()) - 1).bit_length()
        self.shift = 65 - self.cells.bit_length()  # w >> shift is the cell of u
        self.edges = np.ceil(cdf[last] * 2.0**53).astype(np.uint64)  # exact: at most 2**53
        scaled = cdf[last] * self.cells  # exact: cells is a power of two
        self.guide = np.bincount(np.ceil(scaled).astype(np.intp),
                                 minlength=self.cells).cumsum()[: self.cells]
        inside = scaled[scaled != np.floor(scaled)].astype(np.intp)
        self.passes = int(np.bincount(inside).max()) if inside.size else 0
        self.bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        # the state that ``words`` sets, with counter[0] and key[1] rewritten in place
        self.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([seed, 0], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.buffer = np.empty((walks, steps), dtype=np.uint64)

    def words(self, stream: int, skip: int, out: np.ndarray) -> None:
        """Fill out with words skip, skip + 1, ... of walk (seed, stream); skip % 4 == 0."""
        self.state["state"]["counter"][0] = skip // 4
        self.state["state"]["key"][1] = stream
        self.bits.state = self.state
        out[...] = self.bits.random_raw(out.shape)

    def offsets(self, w: np.ndarray) -> np.ndarray:
        """The offset of letter #{i : cdf[i] <= (w >> 11) * 2**-53} for each word w."""
        k = self.guide[(w >> self.shift).view(np.intp)]  # a view: the cells are below 2**63
        for _ in range(self.passes):
            k += (w >> 11) >= self.edges[k]  # an edge of 2**53 stops every k
        return self.offset_of[k]

    def fill(self, picks: np.ndarray, streams: np.ndarray, skip: int = 0) -> None:
        """picks[j] = offsets of letters skip, skip + 1, ... of walk (seed, streams[j])."""
        walks, steps = picks.shape
        few = len(self.buffer)
        for lo in range(0, walks, few):
            rows = self.buffer[: min(few, walks - lo), :steps]
            for stream, row in zip(streams[lo : lo + len(rows)].tolist(), rows):
                self.words(stream, skip, row)
            picks[lo : lo + len(rows)] = self.offsets(rows)


_CANCEL = -1  # merge[t][u] when t * u is the identity; also "no letter"
_APART = -2  # merge[t][u] when t and u lie in different factors


def _merge_array(product: FreeProduct) -> np.ndarray:
    """merge[t, u]: alphabet index of t * u for letters of one factor, else _CANCEL or _APART."""
    s = letter_tables(product)
    merge = np.where(np.equal.outer(s.factor_of, s.factor_of), _CANCEL, _APART)
    merge[s.pair_u, s.pair_v] = s.pair_a
    return merge


class _Steps(NamedTuple):
    """The letter action on a stack of cells, per (drawn letter, top cell) pair.

    A word is a stack of cells, letter index + 1, above a cell 0 for the
    empty word, and pair (drawn, top) has code drawn * (n + 1) + top: a
    letter is drawn as its offset drawn * (n + 1), so one add of the top
    cell gives the code.  Right multiplying by the drawn letter pushes it,
    replaces the top by the product, or pops the top: the step moves the
    top by ``rise`` and writes ``value`` at the higher of the old and the
    new top.  A pop writes 0, so the cells above the top stay 0 when they
    were.
    """

    value: np.ndarray  # the cell written: letter added + 1, 0 for none
    rise: np.ndarray  # change of depth: 1, 0 or -1
    added: np.ndarray  # letter index added at the top, _CANCEL for none
    removed: np.ndarray  # letter index removed from the top, _CANCEL for none


def _steps(product: FreeProduct) -> _Steps:
    n = product.nletters
    merge = np.hstack([np.full((n, 1), _APART), _merge_array(product).T])  # column 0: empty word
    push = merge == _APART
    added = np.where(push, np.arange(n)[:, None], merge)
    removed = np.where(push, _CANCEL, np.arange(-1, n))
    rise = np.where(push, 1, np.where(merge == _CANCEL, -1, 0))
    value = (added + 1).astype(np.min_scalar_type(n))
    return _Steps(*(t.ravel() for t in (value, rise, added, removed)))


def _word(product: FreeProduct, cells) -> Word:
    """The word of a sequence of cells, letter index + 1."""
    return Word(tuple(product.alphabet[c - 1] for c in cells))


def trajectories(
    product: FreeProduct,
    mu: StepDistribution,
    steps: int,
    reps: int,
    seed: int,
    lengths: LengthTable | None = None,
) -> list[Trajectory]:
    """The walks (seed, 0), ..., (seed, reps - 1), each with its length after every step.

    More than STACK_BUDGET recorded lengths, reps * (steps + 1), is
    rejected before anything is allocated.
    """
    if reps * (steps + 1) > STACK_BUDGET:
        raise ValueError(f"{steps} steps of {reps} recorded walks need more than {STACK_BUDGET} cells")
    table = lengths if lengths is not None else natural_lengths(product)
    return _lockstep(product, mu, steps, reps, seed, weights=table.weights, record=True).record


_BLOCK = 1024  # walks stepped together
_CHUNK = 2048  # steps drawn per walk at a time, a multiple of 4 (see _Streams) and of _WATCH
_FEW = 4  # walks whose letters are mapped together
_WATCH = 16  # steps between looks at which walks can still change what is read


def _stack_depth(steps: int, read: int | None) -> int:
    """Rows above cell 0 that a block's stack needs for ``steps`` steps.

    A run that reads its weights at every step (``read`` None) needs
    ``steps``.  A settling run reads cells 1..read (see ``_step``): a
    walk still stepping after the look at step t is at most
    min(t, steps - t + read) <= (steps + read) // 2 deep, and goes at most
    _WATCH deeper before the next look, so it needs that many, or steps if
    fewer.
    """
    return steps if read is None else min(steps, (steps + read) // 2 + _WATCH)


class _Walks(NamedTuple):
    """Per walk of a run, after its last step in ``_step``.

    That is the last step of the run, or, for a prefix or hitting walk
    that settled, the step before the look at which it left.  The prefix
    cells above a walk's depth are 0: a pop writes 0, and each block
    clears cells 1..prefix_len that an earlier block of its run left in
    the stack, so every row is a function of its walk alone, whichever
    process ran it.
    """

    depth: np.ndarray  # letters in the final word; if it left early, still above the cells read
    weight: np.ndarray  # weight of the final word, 0 without weights
    hit: np.ndarray  # whether the word was the one letter goal at some step
    prefix: np.ndarray  # (prefix_len, reps): first letters, index + 1, then 0
    record: list[Trajectory]  # with ``record``, each walk's weight after every step


class _Run(NamedTuple):
    """One run of a batch: the walks (seed, 0), ..., (seed, reps - 1) and what they read."""

    product: FreeProduct
    mu: StepDistribution
    steps: int
    reps: int
    seed: int
    weights: np.ndarray | None = None  # letter weights, read at every step
    goal: int = -1  # the letter index a hitting run looks for
    prefix_len: int = 0  # the first cells kept of each final word
    record: bool = False  # keep each walk's weight after every step


def _groups(runs: Sequence[_Run]) -> list[list[tuple[int, int]]]:
    """Cut a batch's blocks, in run order, into contiguous groups, one per process that steps them.

    Block (i, start) holds the walks start, start + 1, ... of run i, _BLOCK
    of them or the rest of the run.  The n blocks make k = min(CPUs in the
    affinity mask, n) groups, cut before blocks floor(g * n / k), so a
    batch of one run keeps the split of a run stepped alone.  The caller
    alone steps a batch of one block, a batch with a recorded run, whose
    series would cross a pipe, a batch where ``os.sched_getaffinity`` is
    missing (not Linux), and a batch in a process with other threads,
    since a fork from a threaded process can deadlock the child.
    """
    blocks = [(i, start) for i, run in enumerate(runs) for start in range(0, run.reps, _BLOCK)]
    if (len(blocks) == 1 or any(run.record for run in runs) or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return [blocks]
    k = min(len(os.sched_getaffinity(0)), len(blocks))
    return [blocks[len(blocks) * g // k : len(blocks) * (g + 1) // k] for g in range(k)]


def _fork(groups: list, run: Callable[[list], None],
          rows: Callable[[list], list[np.ndarray]]) -> None:
    """run(groups[0]) here and each later group in a forked child, then gather the children's walks.

    A child runs its group, sends ``rows(group)``, the rows of the results
    that its walks fill, or the exception it raised, pickled through a
    pipe, and leaves through ``os._exit``, so no exit handler or stdio
    buffer of the caller runs twice.  The caller writes the rows into
    ``rows(group)``, views of its own results, and re-raises a child's
    exception; a child that dies without a payload raises RuntimeError.
    When ``os.fork`` fails, the caller runs that group itself.  Children
    not yet read when the caller fails or is interrupted are killed before
    they are waited for, since one blocked writing a full pipe would never
    exit, so none is left when this returns or raises.
    """
    mine, children = [groups[0]], []
    try:
        for group in groups[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                os.close(read)
                os.close(write)
                mine.append(group)
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    try:
                        run(group)
                        payload = rows(group)
                    except BaseException as exc:  # the caller raises it
                        payload = exc
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(pickle.dumps(payload))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb"), group))
        for group in mine:
            run(group)
        while children:
            pid, pipe, group = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if not payload:
                raise RuntimeError(f"a Monte Carlo child process ended with wait status {status} "
                                   "and sent no walks")
            parts = pickle.loads(payload)
            if isinstance(parts, BaseException):
                raise parts
            for row, part in zip(rows(group), parts):
                row[...] = part
    finally:
        for pid, pipe, _ in children:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def _step(run: _Run, act: _Steps, out: _Walks, starts: Iterable[int]) -> None:
    """Step the blocks of ``run`` that begin at walks ``starts``; write their walks into ``out``.

    A block is the walks (seed, start), ..., up to _BLOCK of them, stepped
    together.  Each walk keeps its normal form as a stack of cells and
    draws each letter as its offset in the step tables (see ``_Steps``),
    so a step begins with one add of the top cells and the drawn offsets
    into a reused buffer of codes.  The step tables, scaled to the block's
    interleaved stacks, and the change of weight w[added] - w[removed]
    per code make the rest of a step a few gathers over the walks still
    stepping.  The letters are drawn _CHUNK steps at a time, a row per
    walk, and each look copies the next _WATCH steps of the walks still
    stepping to a row per step.  So memory is the stacks' _BLOCK *
    (depth + 1) small ints plus _BLOCK * _CHUNK drawn offsets and the
    _FEW * _CHUNK words being mapped, whatever ``reps``, unless the walks
    are recorded, which needs weights and keeps steps + 1 of them per
    walk.  The depth is ``steps``, or less for a run without weights (see
    below).  They are allocated once per call and freed when it returns.

    Every _WATCH steps a block looks at how deep its walks are; depth
    moves by at most one a step.  A goal is only tested while some walk
    can be at depth 1 within the next _WATCH steps.  Without weights, a
    walk stops stepping at the first look at which it is settled: it has
    hit, or it is deeper than the steps left plus the deepest cell read
    (depth 1 for a hit, prefix_len for a prefix), so nothing read can
    change any more.  It keeps its depth, hit flag and cells.  At a
    _CHUNK boundary only the walks still stepping draw letters, and a
    block ends when none is left.  So the stack holds
    ``_stack_depth(steps, read)`` rows above cell 0, for the deepest cell
    read.  With weights every walk reads every step and none stops early.
    """
    product, mu, steps, reps, seed, weights, goal, prefix_len, record = run
    n = product.nletters
    width = min(reps, _BLOCK)  # cell d of walk j of a block is stack[d * width + j]
    streams = _Streams(mu, seed, min(steps, _CHUNK), min(width, _FEW))
    value, rise = act.value, act.rise * width
    w = np.append(weights if weights is not None else np.zeros(n), 0)  # w[_CANCEL] == 0
    gain = (w[act.added] - w[act.removed]).astype(float)
    series = np.zeros((reps if record else 0, steps + 1))
    settle = weights is None  # the weights are read at every step
    read = 1 if goal >= 0 else prefix_len  # the deepest cell read
    depth = _stack_depth(steps, read if settle else None)  # rows above cell 0
    # A walk reads a cell above depth 0 only after writing it, so blocks
    # share one stack and one buffer of drawn offsets, a row per walk.
    stack = np.zeros((depth + 1) * width, dtype=value.dtype)
    picks = np.empty((width, min(steps, _CHUNK)), dtype=streams.offset_of.dtype)
    codes = np.empty(width, dtype=np.intp)
    for start in starts:
        b = min(width, reps - start)
        stack[width : (prefix_len + 1) * width] = 0  # cells an earlier block left (see _Walks)
        walk = np.arange(b)  # the block column of each walk still stepping
        at = walk.copy()  # the cell of each walk's top
        top = np.zeros(b, dtype=value.dtype)
        hit = np.zeros(b, dtype=bool)
        block = slice(start, start + b)
        total = out.weight[block]
        for done in range(0, steps, _WATCH):
            col, left = done % _CHUNK, steps - done
            if settle:
                stay = ~hit & (at < (left + read + 1) * width)
                if not stay.all():
                    gone = ~stay
                    out.depth[start + walk[gone]] = at[gone] // width
                    out.hit[start + walk[gone]] = hit[gone]
                    slot = slot[stay]
                    walk, at, top, hit = walk[stay], at[stay], top[stay], hit[stay]
                    if not walk.size:
                        break
            if col == 0:
                streams.fill(picks[: len(walk), : min(_CHUNK, left)], start + walk, done)
                slot = np.arange(len(walk))  # the picks row of each walk still stepping
            drawn = picks[slot, col : col + min(_WATCH, left)].T.copy()  # one row per step
            code = codes[: len(walk)]
            watch = goal >= 0 and at.min() < (_WATCH + 2) * width
            for step, offset in enumerate(drawn, done + 1):
                np.add(top, offset, out=code)
                moved = rise[code]
                moved += at
                stack[np.maximum(at, moved, out=at)] = value[code]
                at = moved
                top = stack[at]
                if weights is not None:
                    total += gain[code]
                    if record:
                        series[block, step] = total
                if watch:  # depth 1: cell 0 is never a letter
                    hit |= (at < 2 * width) & (top == goal + 1)
        out.depth[start + walk] = at // width
        out.hit[start + walk] = hit
        cells = stack.reshape(depth + 1, width)
        out.prefix[: min(prefix_len, steps), block] = cells[1 : prefix_len + 1, :b]
        if record:
            out.record.extend(Trajectory(series[start + j], _word(product, cells[1 : d + 1, j]))
                              for j, d in enumerate(out.depth[block].tolist()))


def _batch(runs: Sequence[_Run]) -> list[_Walks]:
    """Step the blocks of several runs in one set of processes: the walks of each run, in order.

    The runs' blocks are cut into groups, one per CPU in the process's
    affinity mask (see ``_groups``).  The caller steps the first group and
    a forked child each other one, once per batch, and the children's
    walks are written into the results (see ``_fork``).  A process steps
    its group's runs one after another (see ``_step``), so it holds one
    run's stack and drawn letters at a time, and makes a run's results
    when it first steps or receives its walks.  A walk's letters, stack and
    sums depend only on its own stream, so every run's walks are those of
    the run stepped alone, in any process.
    """
    acts = [_steps(run.product) for run in runs]
    outs: dict[int, _Walks] = {}

    def walks(i: int) -> _Walks:
        if i not in outs:  # made when the run is first stepped or received
            reps = runs[i].reps
            outs[i] = _Walks(np.empty(reps, dtype=np.intp), np.zeros(reps), np.zeros(reps, dtype=bool),
                             np.zeros((runs[i].prefix_len, reps), dtype=acts[i].value.dtype), [])
        return outs[i]

    def run(group: list[tuple[int, int]]) -> None:
        for i, blocks in groupby(group, key=itemgetter(0)):
            _step(runs[i], acts[i], walks(i), [start for _, start in blocks])

    def rows(group: list[tuple[int, int]]) -> list[np.ndarray]:
        return [col[..., start : start + _BLOCK] for i, start in group for col in walks(i)[:4]]

    _fork(_groups(runs), run, rows)
    return [outs[i] for i in range(len(runs))]


def _lockstep(*args, **kwargs) -> _Walks:
    """The walks of one run, ``_Run(*args, **kwargs)``, stepped as a batch of one."""
    return _batch([_Run(*args, **kwargs)])[0]


class DriftRun(NamedTuple):
    """A run of ``estimate_batch`` that ``estimate_drift`` would make of these arguments."""

    product: FreeProduct
    mu: StepDistribution
    steps: int
    reps: int
    seed: int
    lengths: LengthTable | None = None

    def _run(self) -> _Run:
        check_sizes(self.steps, self.reps)
        table = self.lengths if self.lengths is not None else natural_lengths(self.product)
        return _Run(self.product, self.mu, self.steps, self.reps, self.seed, weights=table.weights)

    def _report(self, walks: _Walks) -> EstimateReport:
        values = walks.weight / self.steps
        stderr = float(values.std(ddof=1) / math.sqrt(self.reps))
        return EstimateReport(float(values.mean()), stderr, self.reps, self.steps)


class HittingRun(NamedTuple):
    """A run of ``estimate_batch`` that ``estimate_hitting`` would make of these arguments."""

    product: FreeProduct
    mu: StepDistribution
    target: Letter
    horizon: int
    reps: int
    seed: int

    def _run(self) -> _Run:
        check_sizes(self.horizon, self.reps, 1)
        goal = self.product.letter_index(self.target)
        return _Run(self.product, self.mu, self.horizon, self.reps, self.seed, goal=goal)

    def _report(self, walks: _Walks) -> EstimateReport:
        p_hat = int(walks.hit.sum()) / self.reps
        stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / self.reps)
        return EstimateReport(p_hat, stderr, self.reps, self.horizon,
                              "finite-horizon estimator; bias is downward (late hits are lost)")


@dataclass(frozen=True)
class PrefixReport:
    """Empirical frequencies of normal-form prefixes among final words."""

    frequencies: dict[Word, float]
    dropped: int
    replications: int
    horizon: int


class PrefixRun(NamedTuple):
    """A run of ``estimate_batch`` that ``estimate_prefix`` would make of these arguments."""

    product: FreeProduct
    mu: StepDistribution
    steps: int
    reps: int
    seed: int
    prefix_len: int

    def _run(self) -> _Run:
        check_sizes(self.steps, self.reps, self.prefix_len)
        return _Run(self.product, self.mu, self.steps, self.reps, self.seed,
                    prefix_len=self.prefix_len)

    def _report(self, walks: _Walks) -> PrefixReport:
        prefixes = walks.prefix[:, walks.depth >= self.prefix_len].T
        counts = Counter(map(tuple, prefixes.tolist()))
        kept = counts.total()
        freqs = {_word(self.product, k): c / kept for k, c in counts.items()} if kept else {}
        return PrefixReport(frequencies=freqs, dropped=self.reps - kept, replications=self.reps,
                            horizon=self.steps)


def estimate_batch(
    runs: Sequence[DriftRun | HittingRun | PrefixRun],
) -> list[EstimateReport | PrefixReport]:
    """The report of each run, in order, its walks stepped in one batch with the others'.

    Each report is the one its estimator gives for the same arguments:
    the batch only decides which process steps which walks (see
    ``_batch``).  Every run's sizes are checked before any walk steps.
    """
    planned = [run._run() for run in runs]
    return [run._report(walks) for run, walks in zip(runs, _batch(planned))]


def estimate_drift(
    product: FreeProduct,
    mu: StepDistribution,
    steps: int,
    reps: int,
    seed: int,
    lengths: LengthTable | None = None,
) -> EstimateReport:
    """Mean of |X_steps|/steps over independent replications, with its stderr."""
    return estimate_batch([DriftRun(product, mu, steps, reps, seed, lengths)])[0]


def estimate_hitting(
    product: FreeProduct,
    mu: StepDistribution,
    target: Letter,
    horizon: int,
    reps: int,
    seed: int,
) -> EstimateReport:
    """Fraction of walks that visit the target letter within the horizon.

    The finite horizon can only miss late hits, so the estimator is biased
    downward; transience makes the missing mass decay geometrically in the
    horizon.
    """
    return estimate_batch([HittingRun(product, mu, target, horizon, reps, seed)])[0]


def estimate_prefix(
    product: FreeProduct,
    mu: StepDistribution,
    steps: int,
    reps: int,
    seed: int,
    prefix_len: int,
) -> PrefixReport:
    """Frequency of each length-``prefix_len`` prefix of X_steps.

    For steps much larger than prefix_len/drift the prefix has stabilized
    to the prefix of the boundary word, so frequencies estimate cylinder
    masses of the harmonic measure.  Replications whose final word is
    shorter than the prefix are dropped and counted.
    """
    return estimate_batch([PrefixRun(product, mu, steps, reps, seed, prefix_len)])[0]


@dataclass(frozen=True, eq=False)
class ExactLaw:
    """The exact law of X_n: one word per row of ``cells``, with its mass.

    Row i is word i as a stack of cells (see ``_Steps``): cell 0 for the
    empty word, then letter index + 1 of each letter, then zeros.
    ``mass[i]`` is its mass, and ``len()`` is the support size.
    """

    product: FreeProduct
    cells: np.ndarray
    mass: np.ndarray

    def __len__(self) -> int:
        return len(self.mass)


def exact_convolution(
    product: FreeProduct,
    mu: StepDistribution,
    n: int,
) -> ExactLaw:
    """Exact law of X_n, its words as rows of cells with their masses.

    Pushes the law forward one letter at a time through the step tables.
    The support is a matrix of stacks of cells (see ``_Steps``), one row
    and one mass per word; a word's depth is its count of nonzero cells.
    Each step acts with every support letter on every word in row-major
    order, numbers the distinct rows in the order they first appear (one
    ``np.unique`` over the rows viewed as single void items, its distinct
    rows then ranked by their first index), and sums their masses in that
    order, so the words come in the order a dict filled word by word would
    hold them, each with that dict's mass.
    Intended for small n; raises StateBudgetError when the support would
    exceed ``CONVOLUTION_BUDGET`` words, read at each call.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    act = _steps(product)
    letters = np.flatnonzero(mu.probs > 0.0)
    offsets = letters * (product.nletters + 1)
    cells = np.zeros((1, n + 1), dtype=act.value.dtype)  # column 0: the empty word
    mass = np.ones(1)
    for _ in range(n):
        at = np.repeat(np.count_nonzero(cells, axis=1), len(letters))  # the top cells
        cells = np.repeat(cells, len(letters), axis=0)
        rows = np.arange(len(cells))
        code = np.resize(offsets, len(rows)) + cells[rows, at]
        cells[rows, np.maximum(at, at + act.rise[code])] = act.value[code]
        keys = cells.view(f"V{cells.itemsize * (n + 1)}").ravel()  # one void item per row
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        if len(first) > CONVOLUTION_BUDGET:
            raise StateBudgetError(f"convolution support exceeds {CONVOLUTION_BUDGET} words")
        order = np.argsort(first)  # the distinct rows by first appearance
        word = np.argsort(order)[inverse]
        mass = np.bincount(word, np.outer(mass, mu.probs[letters]).ravel())
        cells = cells[first[order]]
    return ExactLaw(product, cells, mass)


def expected_length(law: ExactLaw, lengths: LengthTable | None = None) -> float:
    """E |X| under an exact law, in natural or weighted length."""
    table = lengths if lengths is not None else natural_lengths(law.product)
    weight = np.append(0, table.weights)[law.cells].sum(axis=1)  # cell 0 weighs nothing
    return sum((law.mass * weight).tolist())


def distribution_entropy(law: ExactLaw) -> float:
    """Shannon entropy (nats) of an exact law."""
    return -sum(mass * math.log(mass) for mass in law.mass.tolist() if mass > 0.0)
