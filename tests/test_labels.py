import pytest

from sudoku2hcp import order_for_vertex_count, vertex_count
from sudoku2hcp import labels as L
from _support import Role, label_of, role_of


class TestKnownLabels:
    def test_start_and_finish(self):
        assert label_of(Role.start(), 9) == 1
        assert label_of(Role.finish(), 9) == 2
        assert role_of(1, 9) == Role.start()
        assert role_of(2, 9) == Role.finish()

    def test_first_block_vertex(self):
        assert role_of(3, 9) == Role.block(1, 1)

    def test_cell_end_11_at_order_9(self):
        assert label_of(Role.cell_end(1, 1), 9) == 2451

    def test_cand_1111_at_order_9(self):
        assert label_of(Role.cand(1, 1, 1, 1), 9) == 264

    def test_last_label(self):
        assert vertex_count(9) == 4799
        assert role_of(4799, 9) == Role.dup_end(9, 9)


class TestBijection:
    @pytest.mark.parametrize("n", [4, 9])
    def test_full_round_trip(self, n):
        seen = set()
        for label in range(1, vertex_count(n) + 1):
            role = role_of(label, n)
            assert label_of(role, n) == label
            seen.add(role)
        assert len(seen) == vertex_count(n)

    @pytest.mark.parametrize("n", [4, 9])
    def test_label_functions_agree(self, n):
        # label_of reads the layout table; the construction's label_*
        # functions state the same layout by hand
        fixed = {"start": L.START, "finish": L.FINISH}
        for label in range(1, vertex_count(n) + 1):
            role = role_of(label, n)
            if role.kind in fixed:
                assert fixed[role.kind] == label
            else:
                assert getattr(L, f"label_{role.kind}")(*role.args, n) == label

    @pytest.mark.parametrize("n", [4, 9])
    def test_closed_forms(self, n):
        # cell_end(i,j) = 3N^3 + 3N^2 + (i+1)N + (j+2)
        # cand(i,j,k,1) = 3iN^2 + (3j-1)N + 3k
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert (
                    label_of(Role.cell_end(i, j), n)
                    == 3 * n**3 + 3 * n**2 + (i + 1) * n + (j + 2)
                )
                for k in range(1, n + 1):
                    assert (
                        label_of(Role.cand(i, j, k, 1), n)
                        == 3 * i * n**2 + (3 * j - 1) * n + 3 * k
                    )

    def test_family_sizes(self):
        n = 4
        kinds = {}
        for label in range(1, vertex_count(n) + 1):
            kinds.setdefault(role_of(label, n).kind, []).append(label)
        assert len(kinds["block"]) == n * n
        assert len(kinds["row"]) == n * n
        assert len(kinds["row_end"]) == n
        assert len(kinds["col"]) == n * n
        assert len(kinds["col_end"]) == n
        assert len(kinds["cand"]) == 3 * n**3
        assert len(kinds["cell_end"]) == n * n
        assert len(kinds["dup"]) == 3 * n**3
        assert len(kinds["dup_end"]) == n * n
        # each family occupies one contiguous label range
        for labels in kinds.values():
            assert labels == list(range(labels[0], labels[-1] + 1))


class TestErrors:
    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            role_of(0, 9)
        with pytest.raises(ValueError):
            role_of(4800, 9)

    def test_role_out_of_range(self):
        with pytest.raises(ValueError):
            label_of(Role.block(10, 1), 9)
        with pytest.raises(ValueError):
            label_of(Role.cand(1, 1, 1, 4), 9)
        with pytest.raises(ValueError):
            label_of(Role("block", (1,)), 9)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            label_of(Role.start(), 5)


class TestCounts:
    @pytest.mark.parametrize(
        "n,vertices", [(4, 474), (9, 4799), (16, 25890)]
    )
    def test_vertex_count(self, n, vertices):
        assert vertex_count(n) == vertices

    def test_order_for_vertex_count(self):
        for n in (4, 9, 16, 25):
            assert order_for_vertex_count(vertex_count(n)) == n
        with pytest.raises(ValueError):
            order_for_vertex_count(1000)

    def test_order_for_vertex_count_matches_the_scan(self):
        # every count up to order 9's, and each order's count and its
        # neighbours up to box 300: an order exactly for the orders' counts
        counts = {vertex_count(b * b): b * b for b in range(2, 301)}
        probes = [*range(vertex_count(9) + 2)]
        probes += [v + d for v in counts for d in (-1, 0, 1)]
        for v in probes:
            if v in counts:
                assert order_for_vertex_count(v) == counts[v]
            else:
                with pytest.raises(ValueError, match=f"^{v} is not a vertex count of any order$"):
                    order_for_vertex_count(v)

    def test_order_for_vertex_count_of_a_huge_header(self):
        # a 61-digit count used to take about 10^10 steps
        with pytest.raises(ValueError, match="is not a vertex count of any order"):
            order_for_vertex_count(10**60)
        assert order_for_vertex_count(vertex_count(10**40)) == 10**40
