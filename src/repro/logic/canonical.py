"""Canonical forms and interning keys for conjunctive queries.

The rewriting algorithms of the paper must never explore the same CQ twice
*up to variable renaming*: ``QREW`` in Algorithm 1 is a set of queries modulo
variants.  Deciding "is this CQ a variant of one we already have?" with
pairwise isomorphism checks is quadratic in the size of the rewriting, and
the rewriting can hold hundreds of CQs (Table 1), so the check dominates the
hot path.

This module computes an **order- and renaming-invariant canonical key** for a
CQ so that variant lookup becomes a hash-table probe:

* two variant queries (equal modulo a head-preserving bijective variable
  renaming) are guaranteed to receive **equal** keys, and
* two queries with equal keys are *almost always* variants — the rare
  collisions (structurally symmetric but non-isomorphic queries, e.g.
  ``p(X,Y), p(Y,X)`` versus ``p(X,X), p(Y,Y)``) are resolved by the caller
  with an explicit :meth:`ConjunctiveQuery.is_variant_of` check.

The key is built in two stages:

1. **Colour refinement** (:func:`refine_variable_colors`): every variable is
   assigned an integer colour by iterated Weisfeiler–Leman-style refinement
   over the query's incidence structure.  The initial colour records where
   the variable occurs in the head and how often it occurs overall; each
   round refines a colour with the sorted multiset of the variable's
   occurrences ``(predicate, position, colours of the co-occurring terms)``.
   The computation never looks at variable *names* or at the order of body
   atoms, so it is equivariant under renaming and reordering.

2. **De Bruijn-style normalisation** (:func:`canonical_fingerprint`): body
   atoms are serialised with the final colours and sorted; colours are then
   replaced by consecutive indices in order of first occurrence (head first,
   then the sorted body), exactly like De Bruijn indices replace
   bound-variable names by binder depth.  The result is a nested tuple of
   strings and integers — hashable, comparable, and independent of the
   original presentation.

When refinement ends with every variable in its own colour class (a
*discrete* colouring), the key is a complete invariant: two discrete queries
with equal keys are provably variants (the colour-matching renaming is
forced), so the interning store can skip the confirmation step entirely.
:func:`canonical_fingerprint` reports this as its ``exact`` flag.

The same keys make rewritings **content-addressable** beyond a single
process: the canonical key (serialised via ``repr``, which is deterministic
for these nested tuples of strings and ints) addresses entries of the
persistent :class:`repro.cache.store.RewritingStore`.  The invariants any
such use must respect are exactly the two above: *variants always share a
key* (so a key may stand for a whole variant class), and *key equality
proves varianthood only when both colourings are discrete* (so non-exact
entries must be confirmed against a stored representative before being
served).  Exactness itself is a variant invariant — two variants always
agree on the flag — which lets both :class:`repro.queries.ucq.QuerySet` and
the store reject exact/non-exact pairs without any isomorphism search.

Functions here are deliberately duck-typed over anything exposing ``body``
(an iterable of atoms) and ``answer_terms`` so that :mod:`repro.logic` does
not import the higher :mod:`repro.queries` layer.
"""

from __future__ import annotations

from typing import Sequence

from .atoms import Atom
from .flat import FlatQuery, encode_query, refine_colors
from .terms import Term, Variable, is_variable

#: A canonical key: ``("cq", body size, head labels, body atom labels)``.
CanonicalKey = tuple

#: A canonical key plus the exactness flag of the underlying colouring.
CanonicalFingerprint = tuple[CanonicalKey, bool]


def _prepare(query) -> tuple[
    list[Variable],
    dict[Variable, int],
    dict[Term, int],
    list[tuple[tuple[str, int], tuple[tuple[bool, object], ...]]],
]:
    """Shared pre-pass: variable colours, constant ids and atom templates.

    Variables receive their *initial* colour (rank of ``(head positions,
    occurrence count)``); non-variable terms receive a negative id ranked by
    ``repr`` so that variable colours (``>= 0``) and constant ids (``< 0``)
    never clash inside a refinement context.
    """
    body = tuple(query.body)
    answer_terms = tuple(query.answer_terms)

    head_positions: dict[Variable, list[int]] = {}
    counts: dict[Variable, int] = {}
    ground_terms: set[Term] = set()
    for index, term in enumerate(answer_terms):
        if is_variable(term):
            head_positions.setdefault(term, []).append(index)
            counts[term] = counts.get(term, 0) + 1
        else:
            ground_terms.add(term)
    for atom in body:
        for term in atom.terms:
            if is_variable(term):
                head_positions.setdefault(term, [])
                counts[term] = counts.get(term, 0) + 1
            else:
                ground_terms.add(term)

    variables = list(head_positions)
    # ``repr`` distinguishes Const('1') from Const(1) and Null(1); ranking the
    # reprs keeps constant ids equal across variants (which share constants).
    constant_ids: dict[Term, int] = {
        term: -1 - rank for rank, term in enumerate(sorted(ground_terms, key=repr))
    }

    signatures = {
        v: (tuple(head_positions[v]), counts.get(v, 0)) for v in variables
    }
    colors = _rank(signatures)

    templates = [
        (
            (atom.name, atom.arity),
            tuple(
                (True, term) if is_variable(term) else (False, constant_ids[term])
                for term in atom.terms
            ),
        )
        for atom in body
    ]
    return variables, colors, constant_ids, templates


def _rank(signatures: dict[Variable, object]) -> dict[Variable, int]:
    """Replace structural signatures by dense integer colours.

    Signatures are ranked by their sorted order, so equal signatures map to
    the same colour and the numbering is independent of variable identity.
    """
    ordered = sorted(set(signatures.values()))
    index = {signature: position for position, signature in enumerate(ordered)}
    return {variable: index[signature] for variable, signature in signatures.items()}


def _refine(
    variables: Sequence[Variable],
    colors: dict[Variable, int],
    templates: Sequence[tuple[tuple[str, int], tuple[tuple[bool, object], ...]]],
) -> dict[Variable, int]:
    """Iterate colour refinement until the partition stops splitting."""
    distinct = len(set(colors.values()))
    total = len(variables)
    for _ in range(total):
        if distinct == total:
            break
        occurrences: dict[Variable, list[tuple]] = {v: [] for v in variables}
        for predicate_key, entries in templates:
            context = tuple(
                colors[payload] if is_var else payload
                for is_var, payload in entries
            )
            for position, (is_var, payload) in enumerate(entries):
                if is_var:
                    occurrences[payload].append((predicate_key, position, context))
        signatures = {
            v: (colors[v], tuple(sorted(occurrences[v]))) for v in variables
        }
        colors = _rank(signatures)
        refined = len(set(colors.values()))
        if refined == distinct:
            break
        distinct = refined
    return colors


def refine_variable_colors(query) -> dict[Variable, int]:
    """Assign each variable of *query* a renaming-invariant integer colour.

    Variables that receive distinct colours are *never* exchangeable by a
    variant bijection; variables sharing a colour are structurally symmetric
    as far as colour refinement can see.  The loop runs until the colour
    partition stops splitting (at most ``|vars|`` rounds).

    Runs on the tuple-encoded kernel of :mod:`repro.logic.flat`; the
    object-walking original is kept as
    :func:`refine_variable_colors_reference` and the two are held equal by
    ``tests/logic/test_flat_agreement.py``.
    """
    flat = encode_query(query)
    colors = refine_colors(flat)
    return dict(zip(flat.variables, colors))


def refine_variable_colors_reference(query) -> dict[Variable, int]:
    """Object-based reference implementation of :func:`refine_variable_colors`."""
    variables, colors, _, templates = _prepare(query)
    if not variables:
        return {}
    return _refine(variables, colors, templates)


def canonical_fingerprint(query) -> CanonicalFingerprint:
    """The canonical key of *query* plus an exactness flag.

    ``exact`` is ``True`` when colour refinement separated every variable,
    which makes the key a complete invariant: any query with an equal key
    *and* an exact colouring of its own is a variant of *query*.  With a
    non-exact colouring, equal keys still require a confirmation check.

    Runs on the tuple-encoded kernel of :mod:`repro.logic.flat` and emits
    keys byte-identical to :func:`canonical_fingerprint_reference` (flat
    predicate ids are monotone in ``(name, arity)``, so every sort and
    dense rank agrees with the reference; the final key is assembled from
    the real predicate keys and ``repr``-based constant labels).  *query*
    may also be given already encoded, as a :class:`~repro.logic.flat.FlatQuery`:
    the rewriting engine keys each candidate from the encoding it built
    the candidate in.
    """
    flat = query if type(query) is FlatQuery else encode_query(query)
    colors = refine_colors(flat)
    exact = len(set(colors)) == len(flat.variables)

    constant_terms = flat.constant_terms
    sorted_atoms = sorted(
        (
            predicate_id,
            tuple(
                [
                    (True, colors[code]) if code >= 0 else (False, code)
                    for code in codes
                ]
            ),
        )
        for predicate_id, codes in set(flat.templates)
    )

    # De Bruijn-style pass: replace colours by consecutive indices in order
    # of first occurrence — head positions first, then the sorted body.
    # Constant labels are cached per ground code (a constant can occur many
    # times); variable labels are cached per colour.
    debruijn: dict[int, int] = {}
    labels: dict[int, str] = {}

    def label(is_var: bool, payload: int) -> str:
        if not is_var:
            cached = labels.get(payload)
            if cached is None:
                cached = f"c:{constant_terms[-1 - payload]!r}"
                labels[payload] = cached
            return cached
        index = debruijn.get(payload)
        if index is None:
            index = len(debruijn)
            debruijn[payload] = index
        return f"?{index}"

    head_key = tuple(
        [
            label(True, colors[code]) if code >= 0 else label(False, code)
            for code in flat.head_codes
        ]
    )
    predicate_keys = flat.predicate_keys
    body_key = tuple(
        [
            (
                *predicate_keys[predicate_id],
                tuple([label(is_var, payload) for is_var, payload in entries]),
            )
            for predicate_id, entries in sorted_atoms
        ]
    )
    return (("cq", len(body_key), head_key, body_key), exact)


def canonical_fingerprint_reference(query) -> CanonicalFingerprint:
    """Object-based reference implementation of :func:`canonical_fingerprint`."""
    variables, colors, constant_ids, templates = _prepare(query)
    if variables:
        colors = _refine(variables, colors, templates)
    exact = len(set(colors.values())) == len(variables)

    constant_labels = {
        identifier: f"c:{term!r}" for term, identifier in constant_ids.items()
    }
    sorted_atoms = sorted(
        (
            predicate_key,
            tuple(
                (True, colors[payload]) if is_var else (False, payload)
                for is_var, payload in entries
            ),
        )
        for predicate_key, entries in set(templates)
    )

    # De Bruijn-style pass: replace colours by consecutive indices in order
    # of first occurrence — head positions first, then the sorted body.
    debruijn: dict[int, int] = {}

    def label(is_var: bool, payload: object) -> str:
        if not is_var:
            return constant_labels[payload]
        if payload not in debruijn:
            debruijn[payload] = len(debruijn)
        return f"?{debruijn[payload]}"

    head_key = tuple(
        label(True, colors[term]) if is_variable(term)
        else label(False, constant_ids[term])
        for term in query.answer_terms
    )
    body_key = tuple(
        (name, arity, tuple(label(is_var, payload) for is_var, payload in entries))
        for (name, arity), entries in sorted_atoms
    )
    return (("cq", len(body_key), head_key, body_key), exact)


def canonical_key(query) -> CanonicalKey:
    """An order- and renaming-invariant interning key for *query*.

    Guarantees ``q.is_variant_of(p)`` ⇒ ``canonical_key(q) ==
    canonical_key(p)``.  The converse holds unless colour refinement cannot
    separate two symmetric structures, so callers interning by this key must
    confirm membership with an explicit variant check (see
    :class:`repro.queries.ucq.QuerySet`) — or consult the ``exact`` flag of
    :func:`canonical_fingerprint`.
    """
    return canonical_fingerprint(query)[0]


def canonical_form(query):
    """A deterministically renamed variant of *query* (variables ``C0, C1, …``).

    Atoms keep their canonical-sort order for numbering purposes, so two
    variants receive the same form whenever colour refinement separates all
    variables; structurally symmetric variables fall back to the query's own
    presentation order, which keeps the result *a variant of the input* in
    every case (useful for display, golden files, and serialisation).
    """
    colors = refine_variable_colors(query)

    def sort_key(atom: Atom) -> tuple:
        return (
            atom.name,
            atom.arity,
            tuple(
                (0, colors[t]) if is_variable(t) else (1, repr(t))
                for t in atom.terms
            ),
        )

    mapping: dict[Term, Term] = {}

    def assign(term: Term) -> None:
        if is_variable(term) and term not in mapping:
            mapping[term] = Variable(f"C{len(mapping)}")

    ordered = sorted(query.body, key=sort_key)
    for term in query.answer_terms:
        assign(term)
    for atom in ordered:
        for term in atom.terms:
            assign(term)
    renamed = query.apply(mapping)
    return renamed.with_body(atom.apply(mapping) for atom in ordered)
