"""Tuple-encoded ("flat") kernels for the engine's three hottest loops.

Profiling the rewriting engine on the Table 1 workloads shows three pure
functions dominating the compile path: WL colour refinement behind the
canonical interning key (:mod:`repro.logic.canonical`), the backtracking
homomorphism search behind subsumption and variant checks
(:mod:`repro.logic.homomorphism`), and MGU computation behind every
rewriting step (:mod:`repro.logic.unification`).  All three walk frozen
dataclass objects (``Atom``, ``Variable``, ``Constant``) and re-hash the
same terms over and over — and the homomorphism search copies its whole
binding dict once per candidate atom.

Each function is pure over immutable inputs, so the inputs can be
*encoded once* into packed integer form and the inner loops run over
``list``/``tuple`` of ``int`` — no per-step allocation, no dataclass
hashing, integer comparisons only:

* variables become small non-negative indices in first-occurrence order;
* ground terms (constants, labelled nulls) become negative identifiers;
* predicates become dense local ids (with their ``(name, arity)`` keys
  kept alongside wherever output order depends on them);
* an atom becomes a predicate id plus a packed tuple of term codes.

The encodings never escape: every public function of the three logic
modules still accepts and returns the ordinary term/atom/substitution
objects, and each flat kernel is held — by the property tests in
``tests/logic/test_flat_agreement.py`` and the ``make perf-smoke``
gate — to reproduce the object-based reference implementations *byte for
byte*: identical canonical keys, identical homomorphism enumerations
(same mappings in the same order), identical MGUs.

Three guarantees make that byte-identity provable rather than hopeful:

1. **Monotone predicate ids** (canonical refinement): per-query predicate
   ids are assigned in sorted ``(name, arity)`` order, so comparisons of
   int ids order exactly like comparisons of the original keys and every
   dense colour rank of the reference refinement is reproduced.
2. **Same traversal order** (homomorphism search): atoms keep the
   reference's most-constrained-first sort and candidates keep target
   order, so the flat depth-first search visits — and therefore yields —
   mappings in the reference order; bindings are undone via an explicit
   trail instead of copying the binding dict per candidate.
3. **Same union order** (MGU): the flat union-find replays the reference
   pair order and its root-selection rule (rigid terms win, otherwise
   the left root points at the right), so the binding map has identical
   content.
"""

from __future__ import annotations

from typing import Collection, Iterator, Mapping, Sequence

from .atoms import Atom
from .substitution import Substitution
from .terms import Constant, Term, Variable, is_variable

__all__ = [
    "FlatQuery",
    "FlatTarget",
    "encode_query",
    "flat_mgu",
    "refine_colors",
    "search_homomorphisms",
]


# -- canonical refinement ----------------------------------------------------


class FlatQuery:
    """A CQ packed for colour refinement: int codes only in the hot loop.

    ``variables[i]`` is the variable with code ``i`` (first-occurrence
    order over the head, then the body — the order the reference
    ``_prepare`` enumerates them in).  Ground terms carry the code
    ``-1 - rank`` with ranks assigned over ``repr``-sorted terms, exactly
    like the reference constant ids, so variable codes (``>= 0``) and
    ground codes (``< 0``) never clash inside a refinement context.
    Predicate ids are dense *and monotone* in ``(name, arity)`` order —
    the property that makes every sort over flat occurrence tuples agree
    with the reference sort over ``(name, arity)`` keys.
    """

    __slots__ = (
        "variables",
        "constant_terms",
        "predicate_keys",
        "templates",
        "head_codes",
        "initial_colors",
    )

    def __init__(
        self,
        variables: tuple[Variable, ...],
        constant_terms: tuple[Term, ...],
        predicate_keys: tuple[tuple[str, int], ...],
        templates: tuple[tuple[int, tuple[int, ...]], ...],
        head_codes: tuple[int, ...],
        initial_colors: list[int],
    ) -> None:
        self.variables = variables
        self.constant_terms = constant_terms
        self.predicate_keys = predicate_keys
        self.templates = templates
        self.head_codes = head_codes
        self.initial_colors = initial_colors


def encode_query(
    query,
    substitution: Substitution | None = None,
    removed: Collection[Atom] = (),
    added: Sequence[Atom] = (),
) -> FlatQuery:
    """Encode *query* (anything with ``body`` and ``answer_terms``) once.

    Without the optional arguments this encodes *query* itself.  With
    them it encodes the query a factorisation or rewriting step derives
    from *query* — head ``γ(answer_terms)``, body ``γ(a)`` for each body
    atom ``a`` not in *removed*, then ``γ(b)`` for each atom of *added*,
    where ``γ`` is *substitution* — without building a single ``Atom``:
    ``γ`` is applied to each term as it is encoded.  Atoms that coincide
    after ``γ`` are encoded once, as :class:`ConjunctiveQuery` keeps
    them once, so the result equals the encoding of the derived query
    (``tests/logic/test_flat_agreement.py`` holds the two equal).

    Single pass over the head and body: variables, ground terms and
    predicates are interned in first-encounter order while the raw
    template rows are built, then ground codes are patched to ``repr``
    rank and predicate ids to ``(name, arity)`` rank in one cheap
    renumbering sweep (int operations only) — one dict probe per term
    instead of two.  The encoding is a pure function of the query's
    presentation; all invariance (renaming, atom order) comes from
    :func:`refine_colors` and the fingerprint assembly on top.
    """
    variable_type = Variable
    image = substitution.bindings.get if substitution else None

    var_codes: dict[Variable, int] = {}
    head_positions: list[list[int]] = []
    counts: list[int] = []
    ground_ids: dict[Term, int] = {}  # first-encounter ids, reranked below
    ground_list: list[Term] = []
    head_raw: list[int] = []
    answer_terms = query.answer_terms
    if image is not None:
        answer_terms = [image(term, term) for term in answer_terms]
    for index, term in enumerate(answer_terms):
        if type(term) is variable_type:
            code = var_codes.get(term)
            if code is None:
                code = len(counts)
                var_codes[term] = code
                head_positions.append([index])
                counts.append(1)
            else:
                head_positions[code].append(index)
                counts[code] += 1
            head_raw.append(code)
        else:
            gid = ground_ids.get(term)
            if gid is None:
                gid = len(ground_list)
                ground_ids[term] = gid
                ground_list.append(term)
            head_raw.append(-1 - gid)

    body = query.body
    if removed or added:
        body = [atom for atom in body if atom not in removed]
        body.extend(added)
    predicate_ids: dict[object, int] = {}  # first-encounter, reranked below
    predicate_list: list[object] = []
    raw_templates: list[tuple[int, tuple[int, ...]]] = []
    # A query's own body holds no duplicates; a derived body may.
    seen: set | None = set() if image is not None or added else None
    for atom in body:
        predicate = atom.predicate
        pid = predicate_ids.get(predicate)
        if pid is None:
            pid = len(predicate_list)
            predicate_ids[predicate] = pid
            predicate_list.append(predicate)
        row: list[int] = []
        for term in atom.terms:
            if image is not None:
                term = image(term, term)
            if type(term) is variable_type:
                code = var_codes.get(term)
                if code is None:
                    code = len(counts)
                    var_codes[term] = code
                    head_positions.append([])
                    counts.append(1)
                else:
                    counts[code] += 1
                row.append(code)
            else:
                gid = ground_ids.get(term)
                if gid is None:
                    gid = len(ground_list)
                    ground_ids[term] = gid
                    ground_list.append(term)
                row.append(-1 - gid)
        template = (pid, tuple(row))
        if seen is not None:
            if template in seen:
                # Equal to an earlier atom: it brought no new term, so
                # only its occurrences are taken back.
                for code in row:
                    if code >= 0:
                        counts[code] -= 1
                continue
            seen.add(template)
        raw_templates.append(template)

    # Patch ground codes to repr-rank order — equal across variants, like
    # the reference constant ids (variants share their ground terms).
    if ground_list:
        order = sorted(range(len(ground_list)), key=lambda i: repr(ground_list[i]))
        ground_remap = [0] * len(ground_list)
        constants: list[Term] = []
        for rank, gid in enumerate(order):
            ground_remap[gid] = -1 - rank
            constants.append(ground_list[gid])
        constant_terms = tuple(constants)
    else:
        ground_remap = []
        constant_terms = ()

    # Patch predicate ids to be monotone in sorted (name, arity) order, so
    # int id comparisons agree with the reference's key comparisons.
    count = len(predicate_list)
    identity_pids = True
    if count > 1:
        pred_order = sorted(
            range(count),
            key=lambda i: (predicate_list[i].name, predicate_list[i].arity),
        )
        predicate_remap = [0] * count
        keys: list[tuple[str, int]] = []
        for new_pid, old_pid in enumerate(pred_order):
            predicate_remap[old_pid] = new_pid
            if old_pid != new_pid:
                identity_pids = False
            predicate = predicate_list[old_pid]
            keys.append((predicate.name, predicate.arity))
        predicate_keys = tuple(keys)
    else:
        predicate_remap = [0] * count
        predicate_keys = tuple((p.name, p.arity) for p in predicate_list)

    if ground_list:
        templates = tuple(
            (
                predicate_remap[pid],
                tuple(
                    [c if c >= 0 else ground_remap[-1 - c] for c in row]
                ),
            )
            for pid, row in raw_templates
        )
        head_codes = tuple(
            [c if c >= 0 else ground_remap[-1 - c] for c in head_raw]
        )
    elif identity_pids:
        # Common shape: no constants and predicates already in sorted
        # order — the raw rows are the final templates.
        templates = tuple(raw_templates)
        head_codes = tuple(head_raw)
    else:
        templates = tuple(
            (predicate_remap[pid], row) for pid, row in raw_templates
        )
        head_codes = tuple(head_raw)

    # Initial colours: dense ranks of (head positions, occurrence count),
    # identical values to the reference pre-pass.
    signatures = [
        (tuple(head_positions[code]), counts[code])
        for code in range(len(counts))
    ]
    ordered = sorted(set(signatures))
    ranks = {signature: rank for rank, signature in enumerate(ordered)}
    initial_colors = [ranks[signature] for signature in signatures]

    return FlatQuery(
        variables=tuple(var_codes),
        constant_terms=constant_terms,
        predicate_keys=predicate_keys,
        templates=templates,
        head_codes=head_codes,
        initial_colors=initial_colors,
    )


def refine_colors(flat: FlatQuery) -> list[int]:
    """WL colour refinement over the packed encoding.

    Reproduces the reference ``_refine`` exactly: each round collects,
    per variable, the sorted multiset of its occurrences ``(predicate id,
    position, context colours)`` and re-ranks ``(colour, occurrences)``
    signatures densely — int tuples all the way down, ordered like the
    reference's ``((name, arity), ...)`` tuples because predicate ids are
    monotone.
    """
    colors = list(flat.initial_colors)
    total = len(colors)
    if total == 0:
        return colors
    templates = flat.templates
    distinct = len(set(colors))
    for _ in range(total):
        if distinct == total:
            break
        occurrences: list[list[tuple]] = [[] for _ in range(total)]
        for predicate_id, codes in templates:
            context = tuple(
                colors[code] if code >= 0 else code for code in codes
            )
            for position, code in enumerate(codes):
                if code >= 0:
                    occurrences[code].append((predicate_id, position, context))
        signatures = [
            (colors[index], tuple(sorted(occurrences[index])))
            for index in range(total)
        ]
        ordered = sorted(set(signatures))
        ranks = {signature: rank for rank, signature in enumerate(ordered)}
        colors = [ranks[signature] for signature in signatures]
        refined = len(set(colors))
        if refined == distinct:
            break
        distinct = refined
    return colors


# -- homomorphism search -----------------------------------------------------


class FlatTarget:
    """An interned, read-only target side for homomorphism probes.

    Target terms are interned to dense ids and every target atom becomes
    a packed id row, grouped per predicate in target order.  The object
    is *frozen after construction*: repeated probes against the same
    target (subsumption removal probes quadratically) share one encoding,
    and because nothing mutates, sharing is safe across threads.  Terms
    a particular probe introduces beyond the target (source constants,
    ``partial`` images) are interned into a per-call local extension.
    """

    __slots__ = ("term_ids", "terms", "rows")

    def __init__(
        self, index: Mapping[object, Sequence[Atom]]
    ) -> None:
        term_ids: dict[Term, int] = {}
        terms: list[Term] = []
        rows: dict[object, list[tuple[int, ...]]] = {}
        for predicate, atoms in index.items():
            encoded = []
            for atom in atoms:
                row = []
                for term in atom.terms:
                    code = term_ids.get(term)
                    if code is None:
                        code = len(terms)
                        term_ids[term] = code
                        terms.append(term)
                    row.append(code)
                encoded.append(tuple(row))
            rows[predicate] = encoded
        self.term_ids = term_ids
        self.terms = terms
        self.rows = rows


def search_homomorphisms(
    source_atoms: Sequence[Atom],
    index: Mapping[object, Sequence[Atom]],
    base: Mapping[Term, Term],
    target: FlatTarget | None = None,
) -> Iterator[dict[Term, Term]]:
    """Enumerate homomorphism mappings with a trail-undo flat search.

    *source_atoms* must already be in the caller's search order (the
    reference most-constrained-first sort); *base* is the fixed partial
    mapping (``partial`` plus frozen self-mappings).  Yields complete
    mapping dicts (base entries included) in exactly the order the
    reference dict-copying search would produce them, deduplicated.
    """
    if target is None:
        target = FlatTarget(index)
    term_ids = target.term_ids
    target_terms = target.terms
    rows = target.rows
    frozen_size = len(target_terms)
    constant_type = Constant

    # Per-call extension of the interning table: terms that do not occur
    # in the target can never match a target id, but they still need ids
    # (base images must materialise back into the yielded mapping).
    local_ids: dict[Term, int] = {}
    local_terms: list[Term] = []

    # Encode the source side: constants become required ids (packed as
    # ``-1 - id``), every other term becomes a slot index.
    slot_ids: dict[Term, int] = {}
    atom_rows: list[Sequence[tuple[int, ...]]] = []
    atom_codes: list[list[int]] = []
    for atom in source_atoms:
        codes: list[int] = []
        for term in atom.terms:
            if type(term) is constant_type:
                tid = term_ids.get(term)
                if tid is None:
                    tid = local_ids.get(term)
                    if tid is None:
                        tid = frozen_size + len(local_terms)
                        local_ids[term] = tid
                        local_terms.append(term)
                codes.append(-1 - tid)
            else:
                slot = slot_ids.get(term)
                if slot is None:
                    slot = len(slot_ids)
                    slot_ids[term] = slot
                codes.append(slot)
        atom_rows.append(rows.get(atom.predicate, ()))
        atom_codes.append(codes)

    assign = [-1] * len(slot_ids)
    if base:
        for term, slot in slot_ids.items():
            image = base.get(term)
            if image is not None:
                tid = term_ids.get(image)
                if tid is None:
                    tid = local_ids.get(image)
                    if tid is None:
                        tid = frozen_size + len(local_terms)
                        local_ids[image] = tid
                        local_terms.append(image)
                assign[slot] = tid

    total = len(atom_codes)
    # One shared undo trail for the whole search: each candidate records a
    # mark and pops back to it, so no per-candidate list is allocated.
    trail: list[int] = []
    trail_append = trail.append
    trail_pop = trail.pop

    def search(position: int) -> Iterator[tuple[int, ...]]:
        if position == total:
            yield tuple(assign)
            return
        codes = atom_codes[position]
        for row in atom_rows[position]:
            mark = len(trail)
            consistent = True
            for code, value in zip(codes, row):
                if code < 0:
                    if -1 - code != value:
                        consistent = False
                        break
                else:
                    bound = assign[code]
                    if bound < 0:
                        assign[code] = value
                        trail_append(code)
                    elif bound != value:
                        consistent = False
                        break
            if consistent:
                yield from search(position + 1)
            while len(trail) > mark:
                assign[trail_pop()] = -1

    def term_of(code: int) -> Term:
        if code < frozen_size:
            return target_terms[code]
        return local_terms[code - frozen_size]

    slot_terms = list(slot_ids)
    seen: set[tuple[int, ...]] = set()
    for assignment in search(0):
        if assignment in seen:
            continue
        seen.add(assignment)
        mapping: dict[Term, Term] = dict(base)
        for slot, code in enumerate(assignment):
            mapping[slot_terms[slot]] = term_of(code)
        yield mapping


# -- most general unifiers ---------------------------------------------------


def flat_mgu(atoms: Sequence[Atom]) -> Substitution | None:
    """MGU over a packed union-find: int parents instead of term dicts.

    Terms are interned once (dict probes happen once per distinct term,
    not once per find step); the union-find runs over parallel int lists
    with path compression.  Union order and root selection replay the
    reference exactly, so the binding map is identical in content.
    """
    atoms = list(atoms)
    if len(atoms) <= 1:
        return Substitution()
    first = atoms[0]
    predicate = first.predicate

    term_ids: dict[Term, int] = {}
    terms: list[Term] = []
    parent: list[int] = []
    var_flags: list[bool] = []

    def intern(term: Term) -> int:
        code = term_ids.get(term)
        if code is None:
            code = len(terms)
            term_ids[term] = code
            terms.append(term)
            parent.append(code)
            var_flags.append(is_variable(term))
        return code

    left_codes = [intern(term) for term in first.terms]
    for other in atoms[1:]:
        if other.predicate != predicate:
            return None
        for left, term in zip(left_codes, other.terms):
            right = intern(term)
            root_left = left
            while parent[root_left] != root_left:
                root_left = parent[root_left]
            while parent[left] != left:
                parent[left], left = root_left, parent[left]
            root_right = right
            while parent[root_right] != root_right:
                root_right = parent[root_right]
            while parent[right] != right:
                parent[right], right = root_right, parent[right]
            if root_left == root_right:
                continue
            if var_flags[root_left]:
                # Left root is a variable: it points at the right root
                # (which keeps rigid right roots as representatives).
                parent[root_left] = root_right
            elif var_flags[root_right]:
                parent[root_right] = root_left
            else:
                return None  # two distinct rigid terms in one class

    bindings: dict[Term, Term] = {}
    for code in range(len(terms)):
        root = parent[code]
        if root == code:
            continue
        while parent[root] != root:
            root = parent[root]
        cursor = code
        while parent[cursor] != cursor:
            parent[cursor], cursor = root, parent[cursor]
        bindings[terms[code]] = terms[root]
    return Substitution(bindings)
