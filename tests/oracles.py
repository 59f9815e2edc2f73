"""Naive reference implementations used to cross-check the library.

Everything here works straight from definitions with no shortcuts: full
worklists over all of E, explicit subgroup-lattice searches, full-domain
fiber checks.  Only usable on small carriers.
"""

from __future__ import annotations

import itertools
import math
import types


def naive_closure(group, generators):
    """Products of all words over the generators, to a fixpoint."""
    members = {group.identity}
    members.update(generators)
    while True:
        extra = {group.mul(a, b) for a in members for b in members} - members
        if not extra:
            return frozenset(members)
        members |= extra


def all_subgroups(group):
    """Every subgroup, by closing subsets an element at a time."""
    subgroups = {frozenset([group.identity])}
    frontier = list(subgroups)
    while frontier:
        fresh = []
        for sub in frontier:
            for x in group.elements:
                if x in sub:
                    continue
                grown = naive_closure(group, sub | {x})
                if grown not in subgroups:
                    subgroups.add(grown)
                    fresh.append(grown)
        frontier = fresh
    return subgroups


def lattice_e_infinity(z):
    """The largest subgroup F of E with sigma(F) contained in tau(F),
    found by scanning the full subgroup lattice of E."""
    best = frozenset([z.E.identity])
    candidates = []
    for sub in all_subgroups(z.E):
        if {z.sigma.table[e] for e in sub} <= {z.tau.table[e] for e in sub}:
            candidates.append(sub)
            if len(sub) > len(best):
                best = sub
    # the qualifying subgroups are closed under join, so the largest
    # contains all the others
    assert all(sub <= best for sub in candidates)
    return best


def naive_double_cosets(group, left_members, right_members):
    """{(min, frozenset)} per double coset, by direct product expansion."""
    seen = set()
    cosets = []
    for x in group.elements:
        if x in seen:
            continue
        members = frozenset(
            group.mul(group.mul(h, x), k) for h in left_members for k in right_members
        )
        seen |= members
        cosets.append((min(members), members))
    return sorted(cosets)


def naive_fine_orbits(z):
    """Orbit partition applying every element of E at every step."""
    pending = set(z.G.elements)
    orbits = []
    while pending:
        x = min(pending)
        orbit = {x}
        frontier = [x]
        while frontier:
            fresh = []
            for g in frontier:
                for e in z.E.elements:
                    y = z.G.mul(z.G.mul(z.tau.table[e], g), z.G.inv(z.sigma.table[e]))
                    if y not in orbit:
                        orbit.add(y)
                        fresh.append(y)
            frontier = fresh
        pending -= orbit
        orbits.append((x, frozenset(orbit)))
    return sorted(orbits)


def naive_refinement_chain(z, x):
    """The refinement chain of the x-twist of z, straight from the definition
    over the tables of tau and sigma: E_0 = E, G_0 = G and
    E_{i+1} = {e in E_i : x * sigma(e) * x^-1 in tau(E_i)}, G_{i+1} = tau(E_i),
    until E stops shrinking.

    Returns (stages, e_infinity, g_infinity) with stages[i] = (E_i, G_i).
    """
    G = z.G
    tau, sigma = z.tau.table, z.sigma.table
    xinv = G.inv(x)
    e_cur, g_cur = frozenset(z.E.elements), frozenset(G.elements)
    stages = []
    while True:
        stages.append((e_cur, g_cur))
        g_next = frozenset(tau[e] for e in e_cur)
        e_next = frozenset(e for e in e_cur if G.mul(G.mul(x, sigma[e]), xinv) in g_next)
        if e_next == e_cur:
            return stages, e_cur, g_next
        e_cur, g_cur = e_next, g_next


def naive_e_infinity_characterization(z, trace):
    """The trace's stationary E against
    {e in E : sigma(e) in G_inf * tau(e) * G_inf}, over the tables of tau and
    sigma, deciding each (tau(e), sigma(e)) pair (a, b) by a scan of G_inf
    for an h with a^-1 * h * b in G_inf."""
    G = z.G
    tau, sigma = z.tau.table, z.sigma.table
    ginf = trace.g_infinity.members
    qualifies = {}
    for e in z.E.elements:
        a, b = tau[e], sigma[e]
        if (a, b) not in qualifies:
            ainv = G.inv(a)
            qualifies[a, b] = any(G.mul(G.mul(ainv, h), b) in ginf for h in ginf)
    described = frozenset(e for e in z.E.elements if qualifies[tau[e], sigma[e]])
    return described == trace.e_infinity.members


def naive_zip_classes(z):
    """Coarse classes straight from the definition, over all of E, with the
    stationary group of each witness from the naive refinement chain."""
    G = z.G
    pending = set(G.elements)
    classes = []
    while pending:
        x = min(pending)
        ginf = naive_refinement_chain(z, x)[2]
        members = frozenset(
            G.mul(G.mul(z.tau.table[e], G.mul(g, x)), G.inv(z.sigma.table[e]))
            for e in z.E.elements
            for g in ginf
        )
        assert members <= pending, "naive classes failed to partition"
        pending -= members
        classes.append((x, members))
    return sorted(classes)


def naive_class_witness(z, x, ginf, y):
    """(e, g) with y = tau(e) * g * x * sigma(e)^-1 and g in ginf, from a scan
    of E in key order, each e fixing g = tau(e)^-1 * y * sigma(e) * x^-1;
    None when no element of E qualifies."""
    G = z.G
    xinv = G.inv(x)
    for e in z.E.elements:
        g = G.mul(G.mul(G.inv(z.tau.table[e]), y), G.mul(z.sigma.table[e], xinv))
        if g in ginf:
            return e, g
    return None


def naive_classifier(forest):
    """classify(forest, .) with key-first witnesses found by brute force over
    the tables of tau and sigma of z, the forest's datum, a root, not over
    pair tables.

    A node at generation g with accumulated product u holds
    refine^(g+1)(twist(z, u)): its E is E_{g+1} of the u-twist's chain, with
    E_0 = E and E_{i+1} = {e in E_i : sigma'(e) in tau(E_i)} for
    sigma'(e) = u * sigma(e) * u^-1.  At an unstable node
    y = tau(e) * r * sigma'(et) for r the representative of y in the node's
    double quotient, e the key-first element of that E for which some et
    qualifies and et the key-first one; y moves on to tau(et * e), computed
    in E.
    """
    z = forest.datum
    E, G = z.E, z.G
    tau, sigma = z.tau.table, z.sigma.table
    searches = {}

    def search(node):
        """E of the node's datum in key order, and sigma' value -> key-first et."""
        u = node.accumulated
        uinv = G.inv(u)
        twisted = {e: G.mul(G.mul(u, sigma[e]), uinv) for e in E.elements}
        members = set(E.elements)
        for _ in range(node.generation + 1):
            image = {tau[e] for e in members}
            members = {e for e in members if twisted[e] in image}
        first = {}
        for et in sorted(members):
            first.setdefault(twisted[et], et)
        return sorted(members), first

    def classify(x):
        entries, node, current = [], forest.top, x
        while node.children:
            if node.stable:
                r = G.identity
            else:
                r = node.datum.double_quotient.rep_of[current]
                if node not in searches:
                    searches[node] = search(node)
                members, first = searches[node]
                e, et = next((e, first[b]) for e in members
                             if (b := G.mul(G.inv(G.mul(tau[e], r)), current)) in first)
                current = tau[E.mul(et, e)]
            entries.append(r)
            node = node.children[r]
        return tuple(entries)

    return classify


def naive_conjugation_table(group, x, members) -> dict:
    """h -> x * h * x^-1 for each h in members."""
    xinv = group.inv(x)
    return {h: group.mul(group.mul(x, h), xinv) for h in members}


def naive_conjugate(group, members, x):
    """{x * h * x^-1 : h in members}."""
    xinv = group.inv(x)
    return frozenset(group.mul(group.mul(x, h), xinv) for h in members)


def naive_torsor_check(z, x):
    """Full-domain fiber/orbit comparison for the class map of x."""
    G, E = z.G, z.E
    _, einf, ginf = naive_refinement_chain(z, x)
    ginf = sorted(ginf)
    xinv = G.inv(x)
    fibers = {}
    for e in E.elements:
        for g in ginf:
            val = G.mul(G.mul(z.tau.table[e], G.mul(g, x)), G.inv(z.sigma.table[e]))
            fibers.setdefault(val, set()).add((e, g))
    expected = len(einf)
    for fiber in fibers.values():
        if len(fiber) != expected:
            return False
        e0, g0 = min(fiber)
        orbit = set()
        for eps in einf:
            twisted = G.mul(G.mul(x, z.sigma.table[eps]), xinv)
            pair = (
                E.mul(e0, E.inv(eps)),
                G.mul(G.mul(z.tau.table[eps], g0), G.inv(twisted)),
            )
            orbit.add(pair)
        if orbit != fiber:
            return False
    return True


def naive_refined_e(z, x):
    """E_1 of the refined x-twist over the tables of tau and sigma:
    {e in E : x * sigma(e) * x^-1 in tau(E)}."""
    G = z.G
    tau_values = set(z.tau.table.values())
    xinv = G.inv(x)
    return frozenset(e for e, b in z.sigma.table.items() if G.mul(G.mul(x, b), xinv) in tau_values)


def naive_groupoid_equivalence_check(z, x, y, e, e_tilde):
    """The groupoid statement for y = tau(e) * x * sigma(e~), over the tables
    of tau and sigma and on elements of E, not pairs.

    The refined w-twist (w = x, y) has E_1^w = naive_refined_e(z, w) acting on
    G_1 = tau(E) by eps.g = tau(eps) * g * (w * sigma(eps) * w^-1)^-1.  With
    psi_E(eps) = e~^-1 * eps * e~ and psi_G(g) = tau(e~)^-1 * g * x * sigma(e~) * y^-1:
    psi_E maps E_1^x onto E_1^y, psi_G maps G_1 onto G_1,
    psi_G(eps.g) = psi_E(eps).psi_G(g) for every eps in E_1^x and g in G_1,
    psi_G maps each orbit onto an orbit, and psi_E maps the stabilizer of
    each g onto the stabilizer of psi_G(g).  The statement needs the action
    on G_1: a forged tau whose image is no subgroup can let it leave G_1,
    and then the statement fails.
    """
    G, E = z.G, z.E
    tau, sigma = z.tau.table, z.sigma.table
    g1 = frozenset(tau.values())

    def side(w):
        winv = G.inv(w)
        e1 = naive_refined_e(z, w)
        act = {
            (eps, g): G.mul(G.mul(tau[eps], g), G.inv(G.mul(G.mul(w, sigma[eps]), winv)))
            for eps in e1
            for g in g1
        }
        return e1, act

    e1x, act_x = side(x)
    e1y, act_y = side(y)
    if not g1.issuperset(act_x.values()) or not g1.issuperset(act_y.values()):
        return False
    et_inv = E.inv(e_tilde)
    psi_e = {eps: E.mul(E.mul(et_inv, eps), e_tilde) for eps in e1x}
    shift = G.mul(G.mul(x, sigma[e_tilde]), G.inv(y))
    t_inv = G.inv(tau[e_tilde])
    psi_g = {g: G.mul(G.mul(t_inv, g), shift) for g in g1}
    if frozenset(psi_e.values()) != e1y or frozenset(psi_g.values()) != g1:
        return False
    if any(psi_g[act_x[eps, g]] != act_y[psi_e[eps], psi_g[g]] for eps in e1x for g in g1):
        return False

    def orbit(e1, act, g):
        members, frontier = {g}, [g]
        while frontier:
            fresh = {act[eps, h] for eps in e1 for h in frontier} - members
            members |= fresh
            frontier = list(fresh)
        return frozenset(members)

    for g in g1:
        if frozenset(psi_g[h] for h in orbit(e1x, act_x, g)) != orbit(e1y, act_y, psi_g[g]):
            return False
        stab_x = {eps for eps in e1x if act_x[eps, g] == g}
        stab_y = {eps for eps in e1y if act_y[eps, psi_g[g]] == psi_g[g]}
        if {psi_e[eps] for eps in stab_x} != stab_y:
            return False
    return True


def brute_force_gl2_carrier(modulus, divisor=1):
    """All invertible 2x2 matrices over Z/modulus with lower-left entry
    divisible by divisor, by a sweep over every entry quadruple."""
    out = []
    for a, b, c, d in itertools.product(range(modulus), repeat=4):
        if c % divisor == 0 and math.gcd((a * d - b * c) % modulus, modulus) == 1:
            out.append((a, b, c, d))
    return out


# -- law checks, by all pairs and all triples -----------------------------------


def naive_is_closed(mul, members):
    """Every product of two members is a member."""
    members = set(members)
    return all(mul(a, b) in members for a in members for b in members)


def naive_is_subgroup(group, members):
    """A nonempty finite subset closed under products is a subgroup."""
    return group.identity in members and naive_is_closed(group.mul, members)


def naive_is_homomorphism(source, target, table):
    """f(a*b) == f(a)*f(b) for every pair of source elements."""
    return all(
        table[source.mul(a, b)] == target.mul(table[a], table[b])
        for a in source.elements
        for b in source.elements
    )


def naive_hom_from_generator_images(source, target, generators, images):
    """(verdict, table) for the map sending each generator to its image.

    The images are extended along words, breadth first, with no check: each
    element first reached as a*g takes f(a)*image(g).  The verdict comes
    after: "inconsistent" unless the table passes naive_is_homomorphism on
    the subgroup the words reach and sends each generator to its image,
    then "non-generating" unless the words reach every element, else "hom".
    """
    table = {source.identity: target.identity}
    frontier = [source.identity]
    while frontier:
        fresh = []
        for a in frontier:
            for g, im in zip(generators, images):
                b = source.mul(a, g)
                if b not in table:
                    table[b] = target.mul(table[a], im)
                    fresh.append(b)
        frontier = fresh
    reached = types.SimpleNamespace(elements=list(table), mul=source.mul)  # a subgroup of source
    if not naive_is_homomorphism(reached, target, table):
        return "inconsistent", table
    if any(table[g] != im for g, im in zip(generators, images)):
        return "inconsistent", table
    if len(table) != len(source.elements):
        return "non-generating", table
    return "hom", table


def naive_is_group_table(table):
    """Entries in range, a two-sided identity, two-sided inverses and
    associativity over every triple."""
    n = len(table)
    if any(len(row) != n or any(not 0 <= x < n for x in row) for row in table):
        return False
    units = [e for e in range(n) if all(table[e][i] == i == table[i][e] for i in range(n))]
    if not units:
        return False
    e = units[0]
    if not all(any(table[i][j] == e == table[j][i] for j in range(n)) for i in range(n)):
        return False
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def naive_matmul_mod(a, b, size, modulus):
    """The product of two row-major size x size matrices mod modulus: entry
    (i, j) is the sum over k of a[i][k] * b[k][j], reduced mod modulus."""
    rows = lambda m: [list(m[i * size : (i + 1) * size]) for i in range(size)]
    ra, rb = rows(a), rows(b)
    product = [[sum(ra[i][k] * rb[k][j] for k in range(size)) % modulus for j in range(size)] for i in range(size)]
    return tuple(v for row in product for v in row)


def naive_general_linear(size, modulus):
    """Every size x size matrix over Z/modulus, row-major, whose cofactor
    determinant is a unit mod modulus."""
    return frozenset(
        entries
        for entries in itertools.product(range(modulus), repeat=size * size)
        if math.gcd(cofactor_det([entries[i * size : (i + 1) * size] for i in range(size)]), modulus) == 1
    )


def naive_symmetric(degree):
    """Every permutation of 0..degree-1, as an image tuple."""
    return frozenset(itertools.permutations(range(degree)))


def cofactor_det(rows):
    """Determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, a in enumerate(rows[0])
    )


def cofactor_inverse_mod(rows, modulus):
    """The inverse mod modulus as adj / det, each adjugate entry a cofactor
    determinant; None when det is not a unit mod modulus."""
    n = len(rows)
    det = cofactor_det(rows) % modulus
    if math.gcd(det, modulus) != 1:
        return None
    d_inv = pow(det, -1, modulus)
    minor = lambda i, j: [r[:j] + r[j + 1 :] for k, r in enumerate(rows) if k != i]
    return [
        [(-1) ** (i + j) * cofactor_det(minor(j, i)) * d_inv % modulus for j in range(n)]
        for i in range(n)
    ]
