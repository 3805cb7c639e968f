import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dptisim.filters import (
    AlreadyInstalledError,
    CmpOp,
    COMPARE,
    Disposition,
    DuplicateArgFilterError,
    FilterBuilder,
    FilterError,
    MAX_SYSCALL_NR,
    SeccompProgram,
    SeccompRule,
    StringTooLongError,
    SYSCALL_NRS,
    seccomp_eval,
)


def listing_style_builder() -> FilterBuilder:
    fb = FilterBuilder()
    fb.add_rule("read")
    fb.add_rule_string("write", 1, CmpOp.EQ, "teststring")
    return fb


class TestBuilder:
    def test_install_produces_two_populated_rules(self):
        table = listing_style_builder().install()
        assert table.populated == 2
        assert table.lookup(SYSCALL_NRS["read"]).disposition is Disposition.ALLOW
        rule = table.lookup(SYSCALL_NRS["write"])
        assert rule.disposition is Disposition.ALLOW_IF
        assert rule.strings[0].allowed == (b"teststring",)

    def test_install_twice_rejected(self):
        fb = listing_style_builder()
        fb.install()
        with pytest.raises(AlreadyInstalledError):
            fb.install()

    def test_mutation_after_install_rejected(self):
        fb = listing_style_builder()
        fb.install()
        with pytest.raises(AlreadyInstalledError):
            fb.add_rule("close")
        with pytest.raises(AlreadyInstalledError):
            fb.add_rule_string("openat", 1, CmpOp.EQ, "x")
        with pytest.raises(AlreadyInstalledError):
            fb.add_rule_primitive("read", 0, CmpOp.EQ, 1)

    def test_arg_index_bounds(self):
        fb = FilterBuilder()
        with pytest.raises(FilterError):
            fb.add_rule_string("write", 6, CmpOp.EQ, "x")
        with pytest.raises(FilterError):
            fb.add_rule_primitive("write", -1, CmpOp.EQ, 0)

    def test_comparisons_are_named_by_value(self):
        """An op spelled at run time works as the constant; an unknown one,
        or any but EQ for a string, is refused."""
        fb = FilterBuilder()
        fb.add_rule_primitive("read", 0, "".join(["N", "E"]), 1)
        fb.add_rule_string("openat", 1, "".join(["E", "Q"]), "x")
        with pytest.raises(FilterError, match="unknown comparison"):
            fb.add_rule_primitive("write", 0, "NEQ", 1)
        with pytest.raises(FilterError, match="EQ only"):
            fb.add_rule_string("write", 1, CmpOp.NE, "x")
        program = SeccompProgram([
            SeccompRule(0, (), "".join(["al", "low"])), SeccompRule(0, (), "".join(["de", "ny"])),
        ])
        assert seccomp_eval(program, 0, [0] * 6) == (Disposition.DENY, 1)

    def test_string_too_long(self):
        fb = FilterBuilder()
        with pytest.raises(StringTooLongError):
            fb.add_rule_string("write", 1, CmpOp.EQ, "x" * 4097)

    def test_duplicate_primitive_rejected(self):
        fb = FilterBuilder()
        fb.add_rule_primitive("read", 0, CmpOp.EQ, 1)
        with pytest.raises(DuplicateArgFilterError):
            fb.add_rule_primitive("read", 0, CmpOp.NE, 2)

    def test_primitive_and_string_on_same_arg_rejected(self):
        fb = FilterBuilder()
        fb.add_rule_primitive("openat", 1, CmpOp.EQ, 1)
        with pytest.raises(DuplicateArgFilterError):
            fb.add_rule_string("openat", 1, CmpOp.EQ, "x")

    def test_string_values_accumulate(self):
        fb = FilterBuilder()
        fb.add_rule_string("openat", 1, CmpOp.EQ, "a")
        fb.add_rule_string("openat", 1, CmpOp.EQ, "b")
        table = fb.install()
        assert table.lookup(SYSCALL_NRS["openat"]).strings[0].allowed == (b"a", b"b")

    def test_string_filters_are_eq_only(self):
        fb = FilterBuilder()
        with pytest.raises(FilterError):
            fb.add_rule_string("write", 1, CmpOp.LT, "x")

    def test_unknown_syscall_name(self):
        fb = FilterBuilder()
        with pytest.raises(FilterError):
            fb.add_rule("frobnicate")

    @pytest.mark.parametrize("nr", [MAX_SYSCALL_NR + 1, 10**30, -1])
    def test_syscall_number_out_of_range(self, nr):
        fb = FilterBuilder()
        with pytest.raises(FilterError, match=f"outside 0..{MAX_SYSCALL_NR}"):
            fb.add_rule(nr)
        with pytest.raises(FilterError, match=f"outside 0..{MAX_SYSCALL_NR}"):
            fb.add_rule_primitive(nr, 0, CmpOp.EQ, 0)
        fb.add_rule(MAX_SYSCALL_NR)
        assert fb.install().lookup(MAX_SYSCALL_NR).disposition is Disposition.ALLOW


class TestLookup:
    def test_unregistered_is_deny(self):
        table = listing_style_builder().install()
        assert table.lookup(SYSCALL_NRS["openat"]).disposition is Disposition.DENY

    def test_out_of_range_is_deny(self):
        table = listing_style_builder().install()
        assert table.lookup(100000).disposition is Disposition.DENY
        assert table.lookup(-1).disposition is Disposition.DENY


class TestRefcount:
    def test_share_and_release(self):
        table = listing_style_builder().install()
        table.acquire()
        assert table.refcount == 2
        assert table.release() is False
        assert table.release() is True
        assert table.freed

    def test_release_by_group_size(self):
        table = listing_style_builder().install()
        table.acquire()
        table.acquire()
        assert table.release(3) is True

    def test_underflow_rejected(self):
        table = listing_style_builder().install()
        with pytest.raises(FilterError):
            table.release(2)

    def test_freed_table_rejects_acquire_and_release(self):
        table = listing_style_builder().install()
        assert table.release() is True
        with pytest.raises(FilterError, match="already freed"):
            table.acquire()
        with pytest.raises(FilterError, match="already freed"):
            table.release()
        assert (table.refcount, table.freed) == (0, True)


class TestSeccomp:
    def test_empty_program_denies_with_zero_scanned(self):
        program = SeccompProgram([])
        assert seccomp_eval(program, 39, [0] * 6) == (Disposition.DENY, 0)

    def test_scan_count_grows_with_position(self):
        def program_with_allow_at(position: int) -> SeccompProgram:
            rules = [SeccompRule(1000 + i, (), Disposition.DENY) for i in range(348)]
            rules.insert(position - 1, SeccompRule(SYSCALL_NRS["getppid"], (), Disposition.ALLOW))
            return SeccompProgram(rules)

        for position in (1, 175, 349):
            decision, scanned = seccomp_eval(
                program_with_allow_at(position), SYSCALL_NRS["getppid"], [0] * 6
            )
            assert decision is Disposition.ALLOW
            assert scanned == position

    def test_least_permissive_wins_for_same_nr(self):
        rules = [
            SeccompRule(39, (), Disposition.ALLOW),
            SeccompRule(39, (), Disposition.DENY),
        ]
        program = SeccompProgram(rules)
        decision, _ = seccomp_eval(program, 39, [0] * 6)
        assert decision is Disposition.DENY

    def test_predicates_must_match(self):
        from dptisim.filters import PrimitiveFilter

        rules = [
            SeccompRule(1, (PrimitiveFilter(0, CmpOp.EQ, 5),), Disposition.ALLOW),
        ]
        program = SeccompProgram(rules)
        assert seccomp_eval(program, 1, [5, 0, 0, 0, 0, 0])[0] is Disposition.ALLOW
        assert seccomp_eval(program, 1, [6, 0, 0, 0, 0, 0])[0] is Disposition.DENY


class TestDecisionEquivalence:
    """For rule sets without string filters, the dense table and the
    sequential program decide identically on every syscall."""

    @settings(max_examples=120, deadline=None)
    @given(
        rules=st.lists(
            st.tuples(
                st.integers(0, 12),  # syscall nr
                st.one_of(
                    st.none(),
                    st.tuples(st.integers(0, 5), st.sampled_from(list(COMPARE)), st.integers(0, 3)),
                ),
            ),
            max_size=8,
        ),
        call=st.tuples(st.integers(0, 12), st.lists(st.integers(0, 3), min_size=6, max_size=6)),
    )
    def test_differential(self, rules, call):
        from dptisim.filters import PrimitiveFilter

        fb = FilterBuilder()
        seccomp_rules = []
        seen_args = set()
        for nr, prim in rules:
            if prim is None:
                fb.add_rule(nr)
                seccomp_rules.append(SeccompRule(nr, (), Disposition.ALLOW))
            else:
                arg, op, value = prim
                if (nr, arg) in seen_args:
                    continue
                seen_args.add((nr, arg))
                try:
                    fb.add_rule_primitive(nr, arg, op, value)
                except DuplicateArgFilterError:
                    continue
                seccomp_rules.append(
                    SeccompRule(nr, (PrimitiveFilter(arg, op, value),), Disposition.ALLOW)
                )
        table = fb.install()
        program = SeccompProgram(seccomp_rules)

        nr, args = call
        rule = table.lookup(nr)
        if rule.disposition is Disposition.DENY:
            table_allows = False
        elif rule.disposition is Disposition.ALLOW:
            table_allows = True
        else:
            table_allows = all(
                COMPARE[p.op](args[p.arg_index], p.value) for p in rule.primitives
            )
        decision, _ = seccomp_eval(program, nr, args)
        # the builder merges all rules for one nr (conjunction); the program
        # keeps them separate (first match), so compare only the single-rule
        # and allow/deny cases, which is where equivalence is defined
        per_nr = [r for r in seccomp_rules if r.nr == nr]
        if len(per_nr) <= 1:
            assert (decision is Disposition.ALLOW) == table_allows
