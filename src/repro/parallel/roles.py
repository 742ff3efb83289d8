"""The root, median and client process roles (Section IV of the paper).

Each role is a generator function run inside the simulated cluster (see
:mod:`repro.cluster.process`).  The pseudo-code of the paper maps to these
functions as follows:

* the **root process** plays a game at the highest nesting level; at each
  step it sends the position after every candidate move to a median process
  and waits for all their answers;
* a **median process** receives such a position and plays a game one level
  below; at each of *its* steps it asks the dispatcher for a client for every
  candidate move, ships its position and the move to that client, collects
  the scores, plays the best move and finally reports the game's result back
  to the root.  The client's executor builds the position after the move
  only if it actually runs the search, so a shipped position must never
  change: the median's game builds a new position at every step;
* a **client process** receives positions and runs a nested rollout at the
  level it is given (two below the root's), optionally notifying the
  dispatcher that it is free again (Last-Minute algorithm) before returning
  the score.

The root and the medians each play a :class:`~repro.core.nested.NestedGame`,
the game the sequential ``nested`` function plays, so a parallel run returns
exactly the result of the sequential search it parallelises: each role only
decides where a step's candidates are evaluated and what that costs in
simulated time.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Sequence, Tuple

from repro.core.nested import NestedGame
from repro.core.result import SearchResult
from repro.games.base import GameState, Move
from repro.parallel.config import DispatcherKind, ParallelConfig
from repro.parallel.jobs import JobExecutor
from repro.parallel.messages import (
    TAG_DISPATCH,
    TAG_RESULT,
    TAG_TASK,
    ClientFree,
    ClientJob,
    ClientResult,
    DispatchRequest,
    DispatchReply,
    MedianResult,
    MedianTask,
    Shutdown,
    estimate_child_size,
    estimate_state_size,
)
from repro.prng import SeedSequence

__all__ = [
    "root_process",
    "median_process",
    "client_process",
    "median_name",
    "client_result_size",
    "SMALL_MESSAGE_BYTES",
]

#: Wire size of small fixed-format messages (scores, dispatcher traffic).
SMALL_MESSAGE_BYTES = 64.0


def median_name(index: int) -> str:
    """Canonical name of the ``index``-th median process."""
    return f"median-{index:03d}"


def client_result_size(sequence: Sequence[Move]) -> float:
    """Wire size of a result message carrying ``sequence``."""
    return SMALL_MESSAGE_BYTES + 16.0 * len(sequence)


# --------------------------------------------------------------------------- #
# Root process
# --------------------------------------------------------------------------- #
def root_process(
    ctx,
    state: GameState,
    config: ParallelConfig,
    median_names: List[str],
    shutdown_plan: List[Tuple[str, int]],
) -> Generator:
    """The root process: plays the top-level game by delegating to medians.

    ``shutdown_plan`` lists ``(process_name, tag)`` pairs to notify once the
    game is over, using the tag that process listens on.  Returns (as the
    generator's return value) the :class:`SearchResult` of the top-level
    game, exactly like :func:`repro.core.nested.nested_search`.
    """
    game = NestedGame(
        state, config.level, SeedSequence(config.master_seed, "nmcs"), config.max_root_steps
    )
    while True:
        candidates = game.candidates()
        if not candidates:
            break
        # -- communication (a): one candidate position per median, round-robin.
        for i, move, child_seeds in candidates:
            target = median_names[i % len(median_names)]
            child = game.position.play(move)
            task = MedianTask(
                root_step=game.step,
                candidate_index=i,
                move=move,
                position=child,
                level=config.level - 1,
                seeds=child_seeds,
            )
            yield ctx.send(target, task, tag=TAG_TASK, size_bytes=estimate_state_size(child))
        # Trying every candidate move costs the root one move application each.
        yield ctx.compute(len(candidates))

        # -- communication (d): wait for every median answer of this step.
        answers: Dict[int, Tuple[float, Tuple[Move, ...]]] = {}
        while len(answers) < len(candidates):
            message = yield ctx.recv(tag=TAG_RESULT)
            result: MedianResult = message.payload
            if result.root_step != game.step:  # pragma: no cover - defensive
                raise RuntimeError("median answered for a different root step")
            answers[result.candidate_index] = (result.score, result.sequence)
        game.play(answers)
        yield ctx.compute(1)

    # Terminate every other process: the search is over.
    for target, tag in shutdown_plan:
        yield ctx.send(target, Shutdown(), tag=tag, size_bytes=SMALL_MESSAGE_BYTES)

    score, moves = game.result()
    return SearchResult(score=score, sequence=moves, level=config.level)


# --------------------------------------------------------------------------- #
# Median process
# --------------------------------------------------------------------------- #
def _median_play_game(
    ctx,
    start: GameState,
    level: int,
    seeds: SeedSequence,
    dispatcher: str,
) -> Generator:
    """Play one game at ``level`` by delegating candidate evaluations to clients.

    The same :class:`~repro.core.nested.NestedGame` as
    :func:`repro.core.nested.nested_search`, with every ``evaluate_move``
    shipped to a client chosen by the dispatcher.  Returns ``(score, moves)``.
    """
    game = NestedGame(start, level, seeds)
    while True:
        candidates = game.candidates()
        if not candidates:
            break
        # Shipped jobs hold ``position`` until a client runs them; the game
        # never mutates it.
        position = game.position
        moves_played = position.moves_played()
        job_size = estimate_child_size(position)
        pending: Dict[Tuple, int] = {}
        for i, move, child_seeds in candidates:
            # -- communication (b): ask the dispatcher for a client...
            request = DispatchRequest(median=ctx.name, moves_played=moves_played)
            yield ctx.send(dispatcher, request, tag=TAG_DISPATCH, size_bytes=SMALL_MESSAGE_BYTES)
            reply_msg = yield ctx.recv(source=dispatcher, tag=TAG_DISPATCH)
            reply: DispatchReply = reply_msg.payload
            # ...then ship it the position and the move to evaluate.
            job_id = (ctx.name, game.step, i)
            job = ClientJob(
                job_id=job_id,
                parent=position,
                move=move,
                level=level - 1,
                seeds=child_seeds,
                reply_to=ctx.name,
            )
            yield ctx.send(reply.client, job, tag=TAG_TASK, size_bytes=job_size)
            pending[job_id] = i
        yield ctx.compute(len(candidates))

        # -- communication (c): collect one result per shipped job.
        answers: Dict[int, Tuple[float, Tuple[Move, ...]]] = {}
        while len(answers) < len(pending):
            message = yield ctx.recv(tag=TAG_RESULT)
            result: ClientResult = message.payload
            if result.job_id not in pending:  # pragma: no cover - defensive
                raise RuntimeError(f"unexpected client result {result.job_id!r}")
            answers[pending[result.job_id]] = (result.score, (result.move,) + result.sequence)
        game.play(answers)
        yield ctx.compute(1)

    return game.result()


def median_process(ctx, dispatcher: str, root: str = "root") -> Generator:
    """A median process: serve root tasks until told to shut down.

    (The paper's median pseudo-code, lines 1–12.)  Tasks and the shutdown
    message both arrive with ``TAG_TASK``; results the median is waiting for
    arrive with ``TAG_RESULT`` — keeping the two planes on separate tags means
    a new root task queued behind a busy median is never mistaken for a
    client result.
    """
    while True:
        message = yield ctx.recv(tag=TAG_TASK)
        payload = message.payload
        if isinstance(payload, Shutdown):
            return None
        task: MedianTask = payload
        score, moves = yield from _median_play_game(
            ctx, task.position, task.level, task.seeds, dispatcher
        )
        result = MedianResult(
            root_step=task.root_step,
            candidate_index=task.candidate_index,
            move=task.move,
            score=score,
            sequence=(task.move,) + tuple(moves),
        )
        yield ctx.send(root, result, tag=TAG_RESULT, size_bytes=client_result_size(result.sequence))


# --------------------------------------------------------------------------- #
# Client process
# --------------------------------------------------------------------------- #
def client_process(
    ctx,
    config: ParallelConfig,
    executor: JobExecutor,
    dispatcher: str,
) -> Generator:
    """A client process: run nested rollouts at the predefined level.

    (The paper's client pseudo-code, lines 1–6.)
    """
    notify_dispatcher = config.dispatcher is DispatcherKind.LAST_MINUTE
    while True:
        message = yield ctx.recv(tag=TAG_TASK)
        payload = message.payload
        if isinstance(payload, Shutdown):
            return None
        job: ClientJob = payload
        outcome = executor.execute_move(job.parent, job.move, job.level, job.seeds)
        # The search really ran (outcome is exact); its *duration* is simulated
        # by the node executing this many work units at its current share.
        yield ctx.compute(outcome.work_units)
        if notify_dispatcher:
            yield ctx.send(
                dispatcher,
                ClientFree(client=ctx.name),
                tag=TAG_DISPATCH,
                size_bytes=SMALL_MESSAGE_BYTES,
            )
        result = ClientResult(
            job_id=job.job_id,
            move=job.move,
            score=outcome.score,
            sequence=tuple(outcome.sequence),
            client=ctx.name,
        )
        yield ctx.send(
            job.reply_to, result, tag=TAG_RESULT, size_bytes=client_result_size(result.sequence)
        )
