"""A RUP refutation check (Goldberg and Novikov, DATE 2003) for 3-coloring.
Standard library only, so it shares no code with the solver."""


def rup_refutes(n, edges, fixing, proof) -> bool:
    """Does ``proof`` refute a proper 3-coloring of the n-vertex graph on
    ``edges`` that extends ``fixing``?  The encoding is rebuilt here:
    literal ``2 * (3 * v + c)`` says v has color c, the one above it that
    v has not; a clause per vertex, per edge and color, and three units
    per fixed vertex.  The edge clauses are implication lists: "v has c"
    makes "w has not c" true for each neighbour w.  Each proof clause,
    then the empty clause, must make unit propagation conflict once its
    literals are assumed false, and is then added.  Two literals per
    other clause are watched, and what follows with nothing assumed is
    kept throughout."""
    true = bytearray(6 * n)  # true[lit] is set when lit holds
    watches, trail = [[] for _ in range(6 * n)], []
    implied = [[] for _ in range(6 * n)]  # what each literal makes true
    for u, v in edges:
        for c in range(0, 6, 2):
            implied[6 * u + c].append(6 * v + c + 1)
            implied[6 * v + c].append(6 * u + c + 1)
    for v in range(n):
        at_least_one = [6 * v, 6 * v + 2, 6 * v + 4]
        watches[6 * v].append(at_least_one)
        watches[6 * v + 2].append(at_least_one)

    def propagate(head: int) -> bool:  # True on a conflict
        while head < len(trail):
            lit = trail[head]
            head += 1
            for q in implied[lit]:
                if true[q ^ 1]:
                    return True
                if not true[q]:
                    true[q] = 1
                    trail.append(q)
            false_lit = lit ^ 1
            watching, i = watches[false_lit], 0
            while i < len(watching):
                c = watching[i]
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                if not true[c[0]]:
                    k = 2
                    while k < len(c) and true[c[k] ^ 1]:
                        k += 1
                    if k < len(c):  # move the watch to c[k]
                        c[1], c[k] = c[k], false_lit
                        watches[c[1]].append(c)
                        watching[i] = watching[-1]
                        watching.pop()
                        continue
                    if true[c[0] ^ 1]:
                        return True
                    true[c[0]] = 1
                    trail.append(c[0])
                i += 1
        return False

    def add(clause) -> bool:  # with nothing assumed; True on a conflict
        # true literals first, then open ones, then false ones
        c = sorted(clause, key=lambda lit: 2 * true[lit ^ 1] - true[lit])
        if not c or true[c[0] ^ 1]:
            return True
        if len(c) > 1:
            watches[c[0]].append(c)
            watches[c[1]].append(c)
        if true[c[0]] or len(c) > 1 and not true[c[1] ^ 1]:
            return False
        true[c[0]] = 1
        trail.append(c[0])
        return propagate(len(trail) - 1)

    for v, col in fixing.items():
        if any(add([6 * v + 2 * c + (c != col)]) for c in range(3)):
            return True
    for clause in proof:
        if not all(0 <= lit < 6 * n for lit in clause):
            return False
        base, conflict = len(trail), False
        for lit in clause:
            conflict = conflict or true[lit]
            if not true[lit ^ 1]:
                true[lit ^ 1] = 1
                trail.append(lit ^ 1)
        conflict = conflict or propagate(base)
        for lit in trail[base:]:  # undo the assumed part only
            true[lit] = 0
        del trail[base:]
        if not conflict or add(clause):
            return bool(conflict)
    return False
