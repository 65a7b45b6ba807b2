"""The ``serve`` workload: a closed loop of point queries and writes over TCP.

Set-up compiles the knowledge base (``data/kb_sigma.gtgd``, ExbDR, 63
rules), draws a seeded base instance of 20,000 facts, starts a
``ReasoningServer`` with the inline worker tier, warms it (full
materialization) and connects two TCP ``Client`` connections over
loopback, all in this process.  Each connection keeps ``IN_FLIGHT``
requests outstanding and sends the next only when one returns.

The op mix: bound point queries ``P(c, ?y)`` whose constant is drawn from
a Zipf distribution over 2,000 constants (with 24 predicates, far more
distinct queries than the 1024-entry answer cache holds), and every
``WRITE_EVERY``-th op a write: retract 5 base facts, then add them back.
Write ``j`` retracts chunk ``j mod 40``, five facts of component ``j mod
40``, so every run averages DRed cost over all components.  Writes are
serialized by the client, so the server state before each write is the
base instance and DRed counts repeat exactly.

The loop runs in segments of ``SEGMENT_OPS`` ops.  Between segments no
request is in flight, and the host-drift calibration runs there; the
host's speed moves within a second, so segments are short.

Correctness: every response must equal ``naive_reference_fixpoint`` at the
generation the server stamped on it.  The instance is drawn as disjoint
components over disjoint constants, and every rule body is connected, so
the reference is the union of per-component naive fixpoints.  A run with
any nonzero recovery counter in the server's ``resilience`` ledger
(restarts, retries, timeouts, sheds, quarantines, rebuilds) fails as
degraded; checkpoints are normal operation.
"""

from __future__ import annotations

import asyncio
import bisect
import contextvars
import gc
import itertools
import random
import statistics
import time

from common import (
    OUT,
    SETUPS,
    Drift,
    Result,
    SetupTimer,
    Timings,
    Tracer,
    answers_key,
    end_to_end,
    fact_line,
    index_facts,
    knowledge_base_sigma,
    peak_rss_mb,
    random_facts,
    reference_answers,
)

COMPONENTS = 40
FACTS_PER_COMPONENT = 500
CONSTANTS_PER_COMPONENT = 50
CONNECTIONS = 2
IN_FLIGHT = 2
WRITE_EVERY = 50
CHUNK_FACTS = 5
SEGMENT_OPS = 50
ZIPF_EXPONENT = 1.0
#: pre-generated op schedule length (wraps if a run outgrows it)
SCHEDULE_OPS = 40_000
#: writes (lowest op numbers) whose DRed counts are reported
PANEL_WRITES = 4
#: resilience counters that are normal operation, not degradation
HEALTHY_COUNTERS = ("checkpoints",)
#: a run has about 10,000 ops (see common.tail)
TAIL_PERCENTILE = 99.0

CURRENT_REQUEST: contextvars.ContextVar = contextvars.ContextVar("request", default=None)


def component_of(constant: str) -> int:
    return int(constant[1:].split("_", 1)[0])


class Setup:
    """The served KB, its instance, the op schedule; no server yet."""

    def __init__(self, seed: int) -> None:
        from repro import KnowledgeBase

        rng = random.Random(seed)
        self.kb = KnowledgeBase.compile(knowledge_base_sigma(), "exbdr", use_cache=False)
        self.components = []
        for number in range(COMPONENTS):
            names = [f"c{number}_{index}" for index in range(CONSTANTS_PER_COMPONENT)]
            self.components.append(
                random_facts(self.kb.tgds, FACTS_PER_COMPONENT, names, rng, skew=0.0)
            )
        self.facts = [fact for component in self.components for fact in component]
        self.chunks = []
        for number, component in enumerate(self.components):
            chunk = rng.sample(component, CHUNK_FACTS)
            self.chunks.append((number, chunk, "\n".join(f"{fact_line(f)}." for f in chunk)))
        constants = [
            f"c{number}_{index}"
            for number in range(COMPONENTS)
            for index in range(CONSTANTS_PER_COMPONENT)
        ]
        rng.shuffle(constants)
        cumulative = list(
            itertools.accumulate(1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(constants) + 1))
        )
        predicates = sorted(
            self.kb.program.predicates(), key=lambda pred: (pred.name, pred.arity)
        )
        self.schedule = []
        for number in range(SCHEDULE_OPS):
            if number % WRITE_EVERY == WRITE_EVERY // 2:
                self.schedule.append(("write", (number // WRITE_EVERY) % COMPONENTS))
                continue
            constant = constants[bisect.bisect_left(cumulative, rng.random() * cumulative[-1])]
            predicate = rng.choice(predicates)
            rest = [f"?y{index}" for index in range(1, predicate.arity)]
            self.schedule.append(("query", f"{predicate.name}({', '.join([constant] + rest)})"))

    async def start(self, tracer: Tracer):
        from repro.serve import Client, ReasoningServer, ServedKB

        server = ReasoningServer([ServedKB("bench", self.kb, self.facts)], workers=0)
        await server.start()
        with tracer.span("datalog.materialize"):
            await server.warm()
        host, port = await server.start_tcp("127.0.0.1", 0)
        clients = [await Client.connect(host, port) for _ in range(CONNECTIONS)]
        return server, clients


async def stop(server, clients) -> None:
    for client in clients:
        await client.close()
    await server.shutdown()


class Loop:
    """The closed-loop traffic: segments of ops over the client slots."""

    def __init__(self, setup: Setup, clients, tracer: Tracer, result: Result) -> None:
        self.setup = setup
        self.clients = clients
        self.tracer = tracer
        self.result = result
        self.next_op = 0
        self.write_lock = asyncio.Lock()
        self.ids = itertools.count()
        self.queries = []  # (op, text, generation, answers, cached, request id, latency)
        self.writes = []  # (op, chunk, retract response, add response, request ids)
        self.latency = {"query": [], "write": []}

    async def request(self, client, message):
        request_id = f"r{next(self.ids)}"
        message["id"] = request_id
        start = time.perf_counter()
        response = await client.request(message)
        end = time.perf_counter()
        self.tracer.record("serve.request", start, end, request=request_id)
        if not response.get("ok"):
            raise RuntimeError(f"{response.get('error_kind')}: {response.get('error')}")
        return response, request_id, end - start

    async def slot(self, client, segment: int, end_op: int) -> None:
        while self.next_op < end_op:
            number = self.next_op
            self.next_op += 1
            kind, payload = self.setup.schedule[number % len(self.setup.schedule)]
            self.result.attempted += 1
            try:
                if kind == "query":
                    response, request_id, seconds = await self.request(
                        client, {"op": "query", "query": payload}
                    )
                    self.queries.append(
                        (number, payload, response["generation"], answers_key(response["answers"]),
                         response.get("cached"), request_id, seconds)
                    )
                else:
                    _, _, text = self.setup.chunks[payload]
                    async with self.write_lock:
                        start = time.perf_counter()
                        retracted, first, _ = await self.request(
                            client, {"op": "retract", "facts": text}
                        )
                        added, second, _ = await self.request(client, {"op": "add", "facts": text})
                        seconds = time.perf_counter() - start
                    self.writes.append((number, payload, retracted, added, (first, second)))
            except Exception as exc:  # noqa: BLE001 - an op that errors is a failed op
                self.result.fail(f"op {number} ({kind}): {type(exc).__name__}: {exc}")
                continue
            self.latency["query" if kind == "query" else "write"].append((segment, seconds))

    async def segment(self, number: int) -> float:
        end_op = self.next_op + SEGMENT_OPS
        start = time.perf_counter()
        await asyncio.gather(
            *(
                self.slot(client, number, end_op)
                for client in self.clients
                for _ in range(IN_FLIGHT)
            )
        )
        return time.perf_counter() - start


class LayerHooks:
    """Spans around the program's layer entry points, for the traced run.

    Wraps public callables by replacing the attribute the server looks
    them up through: the worker tier's ``WorkerState`` methods, the
    session's query and mutation methods, the query and fact parsers the
    server and workers call, and the protocol's message codec.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.batches = []  # (generation, texts, wall seconds)
        self.mutations = []  # (generation, wall seconds)
        self._undo = []

    def install(self) -> None:
        from repro import ReasoningSession
        from repro.serve import server, workers
        from repro.serve.server import ReasoningServer
        from repro.serve.workers import WorkerState

        self._patch(ReasoningSession, "answer_many", "datalog.answer")
        self._patch(ReasoningSession, "add_facts", "datalog.add")
        self._patch(ReasoningSession, "retract_facts", "datalog.retract")
        for module in (server, workers):
            self._patch(module, "parse_query", "logic.parse", current=True)
            self._patch(module, "parse_facts", "logic.parse", current=True)
        self._patch(server, "encode_message", "serve.protocol",
                    request_of=lambda args, kwargs: args[0].get("id"))
        self._patch(server, "decode_message", "serve.protocol", request_of_result=True)
        batches, mutations = self.batches, self.mutations

        def on_batch(span, args, result):
            batches.append((result["generation"], tuple(args[3]), span.end - span.start))

        def on_mutation(span, args, result):
            mutations.append((result["generation"], span.end - span.start))

        self._patch(WorkerState, "answer_batch", "serve.worker.batch", after=on_batch)
        self._patch(WorkerState, "apply_mutation", "serve.worker.mutation", after=on_mutation)
        original = ReasoningServer.handle_request

        async def handle_request(self_, message):
            token = CURRENT_REQUEST.set(message.get("id"))
            try:
                return await original(self_, message)
            finally:
                CURRENT_REQUEST.reset(token)

        ReasoningServer.handle_request = handle_request
        self._undo.append((ReasoningServer, "handle_request", original))

    def _patch(self, owner, attribute, name, request_of=None, current=False,
               request_of_result=False, after=None) -> None:
        original = getattr(owner, attribute)
        tracer = self.tracer

        def traced(*args, **kwargs):
            if request_of is not None:
                request = request_of(args, kwargs)
            else:
                request = CURRENT_REQUEST.get() if current else None
            with tracer.span(name, request) as span:
                result = original(*args, **kwargs)
            if span is not None:
                if request_of_result and isinstance(result, dict):
                    span.request = result.get("id")
                if after is not None:
                    after(span, args, result)
            return result

        setattr(owner, attribute, traced)
        self._undo.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


def run(seed: int, seconds: float, trace: bool) -> Result:
    return asyncio.run(_run(seed, seconds, trace))


async def _run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    tracer = Tracer()
    hooks = LayerHooks(tracer)
    timer = SetupTimer()
    running = None
    for attempt in range(SETUPS):
        if running is not None:
            await stop(*running)
            running = None
        tracer.enabled = trace and attempt == SETUPS - 1
        with timer.measure():
            setup = Setup(seed)
            running = await setup.start(tracer)
    tracer.enabled = False
    server, clients = running
    if trace:
        hooks.install()
    loop = Loop(setup, clients, tracer, result)
    stats_before = await clients[0].stats()
    segment_walls = []
    drift = Drift()
    spans = []
    traced_cpu = traced_wall = 0.0
    gc.collect()
    before = drift.sample()
    try:
        while sum(segment_walls) < seconds or len(loop.writes) < PANEL_WRITES:
            number = len(segment_walls)
            tracer.enabled = trace and number % 2 == 0
            cpu = time.process_time()
            wall = await loop.segment(number)
            if tracer.enabled:
                traced_cpu += time.process_time() - cpu
                traced_wall += wall
            tracer.enabled = False
            after = drift.sample()
            spans.append((before, after))
            before = after
            segment_walls.append(wall)
        after_stats = await clients[0].stats()
    finally:
        tracer.enabled = False
        hooks.uninstall()
        await stop(server, clients)

    verify_start = time.perf_counter()
    verify(setup, loop, result)
    result.report["verify_s"] = time.perf_counter() - verify_start
    resilience = after_stats["resilience"]
    degraded = {
        key: value
        for key, value in resilience.items()
        if key not in HEALTHY_COUNTERS and value
    }
    if degraded:
        result.fail(f"degraded run: resilience counters {degraded}")

    timings, queries, writes = Timings(drift), Timings(drift), Timings(drift)
    for kind, samples in loop.latency.items():
        for segment, value in samples:
            timings.add(kind, value, *spans[segment])
            (queries if kind == "query" else writes).add(kind, value, *spans[segment])
    ops = len(timings.values())
    result.report.update(
        workload="serve",
        seed=seed,
        ops=ops,
        segments={"wall_s": segment_walls, "host_factor": [drift.factor(*span) for span in spans]},
        writes=len(loop.writes),
        host_factor=drift.summary(),
        resilience=resilience,
    )
    result.metric("host.factor", drift.summary()["median"], "ratio")
    if not trace:
        def busy(normalized: bool) -> float:
            if normalized:
                return sum(wall / drift.factor(*span) for wall, span in zip(segment_walls, spans))
            return sum(segment_walls)

        end_to_end(result, "serve", timings, queries, writes, timer, TAIL_PERCENTILE, busy)
        result.metric("peak_rss_mb", peak_rss_mb(), "MB")
        result.metric("rules_out", len(setup.kb.program), "count")
        return result

    layer_metrics(result, setup, loop, hooks, tracer, stats_before, after_stats)
    # the serve account is in CPU time: the event loop and the worker
    # thread interleave under one interpreter lock, so wall-clock spans of
    # the two threads overlap while their CPU times add up
    layers = tracer.layers()
    table = {
        name: round(row["self_cpu_s"], 6)
        for name, row in layers.items()
        # request spans are client-side waits; the warm-up span is set-up
        if name not in ("serve.request", "datalog.materialize")
    }
    attributed = sum(table.values())
    table["unattributed"] = round(traced_cpu - attributed, 6)
    table["idle"] = round(traced_wall - traced_cpu, 6)
    result.report["account"] = {
        "unit": "s of traced-segment wall: layer self CPU + unattributed CPU + idle",
        "root_wall_s": round(traced_wall, 6),
        "layers_self_s": table,
        "sum_s": round(sum(table.values()), 6),
    }
    result.metric(
        "unattributed.share", (traced_cpu - attributed) / traced_wall if traced_wall else 0.0, "ratio"
    )
    traced, untraced = [], []
    for segment, value in loop.latency["query"]:
        (traced if segment % 2 == 0 else untraced).append(value / drift.factor(*spans[segment]))
    if traced and untraced:
        base = statistics.median(untraced)
        diff = statistics.median(traced) - base
        result.metric("trace.overhead_ms", 1000.0 * diff, "ms")
        result.metric("trace.overhead_share", diff / base, "ratio")
    tracer.dump(OUT / f"trace-serve-{seed}.json")
    return result


def layer_metrics(result, setup, loop, hooks, tracer, before, after) -> None:
    cache_before, cache_after = before["answer_cache"], after["answer_cache"]
    batch_before, batch_after = before["batching"], after["batching"]
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    batches = batch_after["batches"] - batch_before["batches"]
    requests = batch_after["requests"] - batch_before["requests"]
    batch_hits = batch_after["cache_hits"] - batch_before["cache_hits"]
    dedup = batch_after["dedup_saved"] - batch_before["dedup_saved"]
    result.metric("serve.cache.hit_rate", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    result.metric("serve.batch_size.mean", requests / batches if batches else 0.0, "count")
    result.metric(
        "serve.dedup_share", dedup / (requests - batch_hits) if requests > batch_hits else 0.0, "ratio"
    )
    for name, metric in (
        ("serve.worker.batch", "serve.worker.batch.ms"),
        ("serve.worker.mutation", "serve.worker.mutation.ms"),
        ("datalog.answer", "datalog.answer.ms"),
        ("datalog.add", "datalog.add.ms"),
        ("datalog.retract", "datalog.retract.ms"),
        ("logic.parse", "logic.parse.ms"),
    ):
        result.metric(metric, tracer.mean_ms(name), "ms")
    result.metric("serve.request.ms", tracer.mean_ms("serve.request", self_time=False), "ms")
    result.metric("datalog.materialize.ms", tracer.mean_ms("datalog.materialize", self_time=False), "ms")

    # per-request protocol, parse and worker time; the rest is queue wait
    protocol, parse, walls = {}, {}, {}
    for span in tracer.spans:
        wall = span.end - span.start
        if span.name == "serve.protocol":
            protocol[span.request] = protocol.get(span.request, 0.0) + wall
        elif span.name == "logic.parse" and span.request is not None:
            parse[span.request] = parse.get(span.request, 0.0) + wall
        elif span.name == "serve.request":
            walls[span.request] = wall
    batch_wall = {}
    for generation, texts, wall in hooks.batches:
        for text in texts:
            batch_wall.setdefault((generation, text), wall)
    mutation_wall = {generation: wall for generation, wall in hooks.mutations}
    served = {}
    for _, text, generation, _, cached, request_id, _ in loop.queries:
        served[request_id] = 0.0 if cached else batch_wall.get((generation, text), 0.0)
    for _, _, retracted, added, ids in loop.writes:
        served[ids[0]] = mutation_wall.get(retracted["generation"], 0.0)
        served[ids[1]] = mutation_wall.get(added["generation"], 0.0)
    waits, protocols = [], []
    for request_id, wall in walls.items():
        spent = protocol.get(request_id, 0.0)
        protocols.append(spent)
        waits.append(max(0.0, wall - spent - parse.get(request_id, 0.0) - served.get(request_id, 0.0)))
    result.metric("serve.queue_wait.ms", 1000.0 * statistics.fmean(waits) if waits else 0.0, "ms")
    result.metric("serve.protocol.ms", 1000.0 * statistics.fmean(protocols) if protocols else 0.0, "ms")

    panel = sorted(loop.writes)[:PANEL_WRITES]
    overdeleted = sum(write[2]["overdeleted"] for write in panel)
    rederived = sum(write[2]["rederived"] for write in panel)
    result.metric("datalog.dred.overdeleted", overdeleted, "count")
    result.metric("datalog.dred.rederived", rederived, "count")
    result.metric("datalog.dred.rederived_share", rederived / overdeleted if overdeleted else 0.0, "ratio")
    full = setup.kb.materialize(setup.facts)
    result.metric("datalog.rounds", full.rounds, "count")
    result.metric("datalog.derived_facts", full.derived_count, "count")


def verify(setup: Setup, loop: Loop, result: Result) -> None:
    """Check every response against per-component naive fixpoints."""
    from repro.datalog import naive_reference_fixpoint

    for rule in setup.kb.program:
        if not _connected(rule):
            raise RuntimeError(f"rule {rule} has a disconnected body or constants; "
                               "the per-component reference would be unsound")
    removed_at = {}
    for _, chunk, retracted, added, _ in loop.writes:
        removed_at[retracted["generation"]] = chunk
        if retracted["retracted_facts"] != CHUNK_FACTS:
            result.fail(f"retract of chunk {chunk} un-asserted {retracted['retracted_facts']} facts")
    references = {}

    def reference(component: int, chunk):
        key = (component, chunk)
        if key not in references:
            facts = setup.components[component]
            if chunk is not None:
                removed = set(setup.chunks[chunk][1])
                facts = [fact for fact in facts if fact not in removed]
            references[key] = index_facts(naive_reference_fixpoint(setup.kb.program, facts))
        return references[key]

    for number, text, generation, answers, _, _, _ in loop.queries:
        constant = text.partition("(")[2].split(",")[0].rstrip(")").strip()
        component = component_of(constant)
        chunk = removed_at.get(generation)
        if chunk is not None and setup.chunks[chunk][0] != component:
            chunk = None
        if generation % 2 == 1 and generation not in removed_at:
            result.fail(f"op {number}: generation {generation} matches no observed retract")
            continue
        expected = reference_answers(reference(component, chunk), text)
        if answers != answers_key(expected):
            result.fail(
                f"op {number} {text} @ generation {generation}: answers differ from "
                f"the reference's {len(expected)}"
            )


def _connected(rule) -> bool:
    """Whether the rule body's atoms are linked by shared variables and
    mention no constants (so facts over disjoint constants never join)."""
    atoms = list(rule.body)
    for atom in atoms + [rule.head]:
        if any(arg.is_ground for arg in atom.args):
            return False
    reached = {0}
    variables = set(atoms[0].variables()) if atoms else set()
    changed = True
    while changed:
        changed = False
        for index, atom in enumerate(atoms):
            if index not in reached and variables & set(atom.variables()):
                reached.add(index)
                variables |= set(atom.variables())
                changed = True
    return len(reached) == len(atoms)
