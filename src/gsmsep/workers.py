"""Frequency blocks on two CPUs: the caller and one worker beside it.

Every per-bin stage runs over `map_blocks`: consecutive blocks within a
per-thread cache budget, split once, the lower blocks to the caller and
the upper ones to one worker.  The worker is the helper thread, started
at import on Linux with two or more CPUs, or a `Twin`, a forked process
that an optimizer run keeps for its iterations, whose many short numpy
calls would serialize two threads on the GIL.  Both keep one protocol,
`beside(own, method, *args)`: the worker's method runs while own runs on
the caller, and an error on either side reaches the caller once the
worker is idle.  Sums over f are folded in block order, the caller's
results before the worker's, so every value has the bits of one thread.
This module imports no other gsmsep module.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import dataclasses
import functools
import io
import math
import mmap
import os
import pickle
import signal
import threading
import time
import types
import warnings

import numpy as np
from numpy.lib.array_utils import byte_bounds

# working-set bound of one frequency block of a per-bin stage (`freq_blocks`),
# per thread: half of the 2 MiB per-core L2 it was tuned on
_BLOCK_BYTES = 1 << 20

# how long the twin and the caller poll for the other's next message
# before they block on its pipe
_POLL_S = 2e-3

# distinct commands each side of the twin's pipe keeps pickled
_MEMO_SIZE = 64


def freq_blocks(n_freq: int, bytes_per_freq: int) -> list[slice]:
    """Consecutive frequency slices covering range(n_freq) once, in order.

    Each holds _BLOCK_BYTES // bytes_per_freq frequencies (at least one;
    the last may hold fewer).  A per-bin stage passes the bytes its
    temporaries take per frequency and works block by block, so they stay
    in cache; across blocks only its sums over f are coupled.
    """
    step = max(1, _BLOCK_BYTES // bytes_per_freq)
    return [slice(start, min(start + step, n_freq)) for start in range(0, n_freq, step)]


def map_blocks(body, n_freq: int, bytes_per_freq: int, fold=None, twin=None) -> list:
    """[body(block) for block in freq_blocks(n_freq, bytes_per_freq)], shared
    by the caller and one worker: `twin`, if given, else the helper thread.

    The caller takes, in order, the blocks whose middle lies at or below
    the middle of the range, the worker the rest; without a worker, or
    with one block, the caller takes them all.  With `fold`, each result
    goes to fold(result) instead, the caller's and then (queued behind its
    blocks) the worker's, in block order, and the list is empty: a sum over
    f then has the serial loop's bits.  The helper runs in a copy of the
    caller's context (its `np.errstate`), the twin under that errstate.
    After an error on the caller or the helper, the other takes no further
    block; the worker is idle before any error propagates.  With `twin`,
    body and fold must pickle and write only into the twin's memory, which
    is checked only when the twin takes a block.
    """
    blocks, results = freq_blocks(n_freq, bytes_per_freq), []
    worker = twin if twin is not None or _HELPER is None else _Helper(_HELPER)
    cut = len(blocks) if worker is None else sum(
        block.start + block.stop <= n_freq for block in blocks)

    def own() -> None:
        for block in blocks[:cut]:
            if worker is not None and worker._stopped:
                return  # the helper raised: `beside` re-raises it
            (fold or results.append)(body(block))
        if fold is not None and cut < len(blocks):
            worker._send("_fold", fold)

    if cut == len(blocks):
        own()
        return results
    _, theirs = worker.beside(own, "_blocks", body, blocks[cut:], fold is not None)
    if fold is not None:
        worker._reply()
    return results + theirs


class _Worker:
    # `beside`, and a worker's share of `map_blocks`: its blocks, then their fold
    _stopped = False  # set on the helper by either side's error

    def beside(self, own, method: str, *args) -> tuple:
        """(own(), the worker's method(*args)), the method run in the worker
        while own runs here; "_call" calls args[0] with the rest.  Either
        error propagates once the worker is idle, own's first."""
        self._send(method, *args)
        try:
            mine = own()
        except BaseException:
            self._drain()
            raise
        return mine, self._reply()

    def _call(self, fn, *args):
        return fn(*args)

    def _blocks(self, body, blocks: list, hold: bool) -> list:
        self._held = []  # set once every block has run
        results = [body(block) for block in blocks if not self._stopped]
        self._held = results if hold else []
        return [] if hold else results

    def _fold(self, fold) -> None:
        held, self._held = self._held, []
        for result in held:
            fold(result)


class _Helper(_Worker):
    """One `map_blocks` call's share on the helper thread, whose commands
    run in turn, each in a copy of the caller's context."""

    def __init__(self, pool: concurrent.futures.Executor):
        self._pool, self._futures = pool, []

    def _send(self, method: str, *args) -> None:
        def stopping():  # an error here stops the caller's share too
            try:
                return getattr(self, method)(*args)
            except BaseException:
                self._stopped = True
                raise
        self._futures.append(self._pool.submit(contextvars.copy_context().run, stopping))

    def _reply(self):
        # the oldest command's value, or what it raised, once the helper is idle
        concurrent.futures.wait(self._futures)
        return self._futures.pop(0).result()

    def _drain(self) -> None:
        self._stopped = True
        concurrent.futures.wait(self._futures)


def run_blocks_serially() -> None:
    """Run every `map_blocks` block on its caller, and fork no twin (`parallel`)."""
    global _HELPER
    _HELPER = None


def parallel() -> bool:
    """Whether `map_blocks` has its helper thread, and a run may fork a twin."""
    return _HELPER is not None


# the one thread that takes `map_blocks`' upper blocks beside the caller
_HELPER = None
if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
    _HELPER = concurrent.futures.ThreadPoolExecutor(1, "gsmsep-blocks")
    os.register_at_fork(after_in_child=run_blocks_serially)  # threads are not forked


def shared_empty(shape: tuple, dtype=np.float64) -> np.ndarray:
    """An array in shared anonymous memory: a twin forked after this sees
    the caller's writes to it, and the caller the twin's."""
    size = math.prod(shape)
    pages = mmap.mmap(-1, max(1, size * np.dtype(dtype).itemsize))
    return np.frombuffer(pages, dtype, size).reshape(shape)


def _poll(counts: np.ndarray, k: int, seen: int) -> bool:
    # wait up to _POLL_S for counts[k] to pass `seen` before the pipe read
    # that would block: on a two-vCPU VM a read that slept was woken ~70 us
    # after the write, which delayed the twin's start of every stage
    deadline = time.perf_counter() + _POLL_S
    while counts[k] == seen and time.perf_counter() < deadline:
        pass
    return True


def _current_cpu(cpus: list) -> int:
    # the CPU the calling thread runs on (field 39 of its Linux stat), or
    # else the first of `cpus`
    try:
        with open("/proc/thread-self/stat") as stat:
            cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return cpus[0]
    return cpu if cpu in cpus else cpus[0]


def _arrays(obj) -> list:
    # an array itself, or a dataclass's fields (not copied, as by astuple)
    return [obj] if type(obj) is np.ndarray else [
        getattr(obj, field.name) for field in dataclasses.fields(obj)]


def _fingerprint(obj, index: dict):
    # a hashable key shared by every command that pickles to obj's bytes,
    # or None: the twin's objects by index, arrays by address and layout,
    # partials, sequences and dataclasses by their items, hashables by value
    if (k := index.get(id(obj))) is not None:
        return k
    kind = type(obj)
    if kind in (float, int, str, bool, type(None)):
        return kind, obj
    if kind is slice:
        return kind, obj.start, obj.stop, obj.step
    if kind in (tuple, list):
        items = tuple(_fingerprint(item, index) for item in obj)
        return None if None in items else (kind, items)
    if kind is functools.partial:
        args = _fingerprint(obj.args, index)
        return None if args is None or obj.keywords else (kind, obj.func, args)
    if kind is np.ndarray:
        interface = obj.__array_interface__
        return kind, interface["data"], interface["shape"], interface["strides"], obj.dtype
    if dataclasses.is_dataclass(kind):
        fields = _fingerprint(_arrays(obj), index)
        return None if fields is None else (kind, fields)
    try:
        hash(obj)
    except TypeError:
        return None
    return kind, obj


class Twin(_Worker):
    """A forked process that works beside the caller, each on one thread.

    `objects` are what its commands may name, each pickled as its index:
    arrays, and dataclasses of arrays.  Their arrays and views into them
    are its memory, read through the fork's copy-on-write pages; those
    allocated by `shared_empty` carry writes both ways.  A command (the
    upper blocks of a `map_blocks` stage, or one call) goes through the
    pipe "go" with the caller's numpy error state, pickled once per
    distinct command (`_fingerprint`); "done" brings back the result and
    numpy's warnings, which the caller issues, or the exception, which it
    re-raises once the twin is idle.  Each side polls a shared count of
    the other's messages for up to _POLL_S before it blocks on a pipe.
    The twin ignores SIGINT, never prints, and leaves by os._exit on an
    empty command or a closed pipe; `close` sends one and reaps it.
    Until then the caller's thread keeps to the CPU it ran on at the fork
    and the twin to another: woken by a pipe, the twin was placed on its
    waker's CPU, and the two ran as one.  The fork raises OSError when no
    process can be made.
    """

    def __init__(self, objects: list):
        arrays = [array for obj in objects for array in _arrays(obj)]
        self._bounds = [byte_bounds(array) for array in arrays]
        # pickled as their index into this list, which the fork copies
        self._objects = arrays + [obj for obj in objects if type(obj) is not np.ndarray]
        self._index = {id(obj): index for index, obj in enumerate(self._objects)}
        # commands the caller wrote, replies the twin wrote: each polls the
        # other's count before it blocks on a pipe (`_poll`)
        self._counts = shared_empty((2,), np.int64)
        self._pending, self._received = 0, 0
        self._payloads = {}  # the caller's pickled commands, by `_fingerprint`
        self._cpus = sorted(os.sched_getaffinity(0))
        here = _current_cpu(self._cpus)
        self._pinned, there = None, [cpu for cpu in self._cpus if cpu != here][:1]
        # SIGINT stays blocked until the twin ignores it, so a Ctrl-C at the
        # fork cannot raise KeyboardInterrupt in the twin
        self.pid, fds = None, []
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            fds += os.pipe()
            fds += os.pipe()
            with warnings.catch_warnings():
                # Python >= 3.12 warns of a fork in a multi-threaded process:
                # the helper is idle here (every map_blocks waits for it), and
                # the twin runs only numpy, LAPACK and the priors' scipy
                warnings.filterwarnings("ignore", ".* is multi-threaded", DeprecationWarning)
                self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        finally:
            if self.pid != 0:
                signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        go_read, go_write, done_read, done_write = fds
        if self.pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                self._pin(there)
                signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
                os.close(go_write)
                os.close(done_read)
                self._serve(os.fdopen(go_read, "rb"), os.fdopen(done_write, "wb"))
            finally:
                os._exit(0)
        os.close(go_read)
        os.close(done_write)
        if self._pin([here]):
            self._pinned = threading.get_ident()
        self._go, self._done = os.fdopen(go_write, "wb"), os.fdopen(done_read, "rb")

    def _persistent_id(self, obj):
        # each of the twin's own objects pickles as its index, any other
        # array in the twin's memory as its address, which is the same in
        # both processes; every other array is refused, as a copy would
        # take the twin's writes
        if (index := self._index.get(id(obj))) is not None:
            return index
        if type(obj) is not np.ndarray or obj.size == 0:
            return None
        low, high = byte_bounds(obj)
        if not any(start <= low and high <= end for start, end in self._bounds):
            raise pickle.PicklingError(f"a {obj.shape} array outside the twin's memory")
        interface = obj.__array_interface__
        return interface["data"], interface["shape"], interface["strides"], interface["typestr"]

    def _persistent_load(self, pid):
        if isinstance(pid, int):
            return self._objects[pid]
        data, shape, strides, typestr = pid
        return np.asarray(types.SimpleNamespace(__array_interface__={
            "data": data, "shape": shape, "strides": strides, "typestr": typestr, "version": 3}))

    def _pin(self, cpus: list) -> bool:
        # keep the calling thread to `cpus`, when they are one of two or more
        if len(self._cpus) < 2 or not cpus:
            return False
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            return False
        return True

    # -- in the twin --------------------------------------------------------

    def _serve(self, go, done) -> None:
        # the twin's loop: one command per go, until an empty one or EOF;
        # a payload seen before is not unpickled again
        memo = {}
        while _poll(self._counts, 0, self._received) and (
                size := int.from_bytes(go.read(4), "little")):
            payload = go.read(size)
            self._received += 1
            if (command := memo.get(payload)) is None:
                if len(memo) >= _MEMO_SIZE:
                    memo.clear()
                unpickler = pickle.Unpickler(io.BytesIO(payload))
                unpickler.persistent_load = self._persistent_load
                command = memo[payload] = unpickler.load()
            errors, method, args = command
            try:
                with np.errstate(**dict(errors)), warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    value = getattr(self, method)(*args)
                reply = value, [(w.category, str(w.message)) for w in caught]
            except Exception as error:  # re-raised by the caller
                reply = error
            pickle.dump(reply, done, pickle.HIGHEST_PROTOCOL)
            done.flush()
            self._counts[1] += 1

    # -- in the caller ------------------------------------------------------

    def _send(self, method: str, *args) -> None:
        # the whole command is pickled before any of it is written, so a
        # refused array leaves the pipe as it was; a stage sends the same
        # command every iteration, so its payload is kept by fingerprint
        command = (tuple(np.geterr().items()), method, args)
        key = _fingerprint(args, self._index)
        key = None if key is None else (command[0], method, key)
        if (payload := self._payloads.get(key)) is None:
            buffer = io.BytesIO()
            pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
            pickler.persistent_id = self._persistent_id
            pickler.dump(command)
            payload = buffer.getvalue()
            if key is not None:
                if len(self._payloads) >= _MEMO_SIZE:
                    self._payloads.clear()
                self._payloads[key] = payload
        self._go.write(len(payload).to_bytes(4, "little") + payload)
        self._go.flush()
        self._counts[0] += 1
        self._pending += 1

    def _load(self):
        _poll(self._counts, 1, self._received)
        try:
            reply = pickle.load(self._done)
            self._received += 1
        except EOFError:
            self._pending = 0
            raise ChildProcessError(f"twin process {self.pid} exited") from None
        self._pending -= 1
        return reply

    def _reply(self):
        # the oldest outstanding reply's value, after issuing the twin's
        # numpy warnings; or what the twin raised, once it is idle
        reply = self._load()
        if isinstance(reply, BaseException):
            self._drain()
            raise reply
        value, caught = reply
        for category, message in caught:
            warnings.warn(message, category, stacklevel=3)
        return value

    def _drain(self) -> None:
        # wait for every outstanding reply and drop it
        while self._pending:
            try:
                self._load()
            except ChildProcessError:
                return

    def close(self) -> None:
        """Stop the twin and wait for it to exit."""
        try:
            self._go.write(bytes(4))
            self._go.close()
        except BrokenPipeError:  # it has gone already
            pass
        self._done.close()
        os.waitpid(self.pid, 0)
        if self._pinned == threading.get_ident():
            os.sched_setaffinity(0, self._cpus)
