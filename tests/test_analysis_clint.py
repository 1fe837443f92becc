"""clint fixture suite: every C rule fires on its seeded hazard.

Each synthetic kernel below seeds exactly the hazard one rule guards —
a leaked allocation, a ``rand()`` call, a bare ``int`` loop index, an
uninitialized read, an unguarded cursor write — and the tests prove the
rule fires on it (and stays quiet on the fixed variant).  The
suppression grammar and the baseline round-trip are pinned against
:mod:`repro.analysis.core`'s machinery.
"""

import textwrap

from repro.analysis.clint import (
    c_rule_help,
    check_native_sources,
    discover_kernels,
    native_sources,
    scan_kernel_source,
)
from repro.analysis.core import baseline_entries, split_by_baseline


# ----------------------------------------------------------------------
# Fixture kernels: one seeded hazard each
# ----------------------------------------------------------------------
LEAKY_SRC = r"""
#include <stdint.h>
#include <stdlib.h>

int64_t leaky(int64_t n)
{
    int64_t *buf = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    int64_t *tmp = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    if (!tmp)
        return -1;
    if (n > 4)
        return 0;
    free(tmp);
    return buf ? 1 : 0;
}
"""

NONDET_SRC = r"""
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

int64_t jitter(void)
{
    srand((unsigned)time(NULL));
    return (int64_t)rand();
}
"""

NARROW_SRC = r"""
#include <stdint.h>

int64_t count_up(int64_t n)
{
    int64_t total = 0;
    for (int i = 0; i < n; i++)
        total += 1;
    return total;
}
"""

UNINIT_SRC = r"""
#include <stdint.h>

int64_t acc_bug(const int64_t *v, int64_t n)
{
    int64_t acc;
    for (int64_t i = 0; i < n; i++)
        acc += v[i];
    return acc;
}

void out_param_ok(int64_t n)
{
    int64_t lo;
    helper(&lo, n);
}
"""

CURSOR_SRC = r"""
#include <stdint.h>

int64_t pack(const int64_t *v, int64_t n, int64_t *out)
{
    int64_t pos = 0;
    for (int64_t i = 0; i < n; i++)
        if (v[i] > 0)
            out[pos++] = v[i];
    return pos;
}
"""

CURSOR_GUARDED_SRC = r"""
#include <stdint.h>

int64_t pack(const int64_t *v, int64_t n, int64_t *out)
{
    int64_t pos = 0;
    for (int64_t i = 0; i < n; i++)
        if (v[i] > 0 && pos < n)
            out[pos++] = v[i];
    return pos;
}
"""

def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# Each rule fires on its seeded fixture (and only that rule)
# ----------------------------------------------------------------------
def test_malloc_leak_fires_on_both_variants():
    findings = scan_kernel_source("leaky", LEAKY_SRC)
    assert rules_of(findings) == ["c-malloc-leak"]
    messages = "\n".join(f.message for f in findings)
    # 'buf' is never freed at all; 'tmp' leaks on the early return.
    assert "never frees" in messages and "'buf'" in messages
    assert "return path" in messages and "'tmp'" in messages
    # the return directly under tmp's own null-check is exempt
    assert len(findings) == 2


def test_nondeterminism_fires_per_call():
    findings = scan_kernel_source("jitter", NONDET_SRC)
    assert rules_of(findings) == ["c-nondeterminism"]
    called = sorted(f.message.split("(")[0].split()[-1] for f in findings)
    assert called == ["rand", "srand", "time"]


def test_int_width_fires_on_bare_int_index():
    findings = scan_kernel_source("narrow", NARROW_SRC)
    assert rules_of(findings) == ["c-int-width"]
    assert "'int'" in findings[0].message


def test_uninitialized_read_fires_but_out_params_do_not():
    findings = scan_kernel_source("uninit", UNINIT_SRC)
    assert rules_of(findings) == ["c-uninitialized-read"]
    (finding,) = findings
    assert "'acc'" in finding.message  # &lo in out_param_ok is a write


def test_unchecked_write_fires_without_a_bound():
    findings = scan_kernel_source("cursor", CURSOR_SRC)
    assert rules_of(findings) == ["c-unchecked-write"]
    assert "'pos++'" in findings[0].message


def test_unchecked_write_quiet_with_a_bound():
    assert scan_kernel_source("cursor", CURSOR_GUARDED_SRC) == []


def test_rule_help_covers_every_emitted_rule():
    help_rules = set(c_rule_help())
    for source in (
        LEAKY_SRC, NONDET_SRC, NARROW_SRC, UNINIT_SRC, CURSOR_SRC,
    ):
        for finding in scan_kernel_source("k", source):
            assert finding.rule in help_rules


# ----------------------------------------------------------------------
# Suppressions and line anchoring
# ----------------------------------------------------------------------
CURSOR_LINE = "            out[pos++] = v[i];"


def test_suppression_silences_named_rule():
    patched = CURSOR_SRC.replace(
        CURSOR_LINE,
        CURSOR_LINE + " /* clint: disable=c-unchecked-write (fixture) */",
    )
    assert patched != CURSOR_SRC
    assert scan_kernel_source("cursor", patched) == []


def test_bare_suppression_silences_every_rule():
    patched = CURSOR_SRC.replace(
        CURSOR_LINE, CURSOR_LINE + " /* clint: disable */"
    )
    assert scan_kernel_source("cursor", patched) == []


def test_suppression_for_other_rule_does_not_apply():
    patched = CURSOR_SRC.replace(
        CURSOR_LINE, CURSOR_LINE + " /* clint: disable=c-malloc-leak */"
    )
    findings = scan_kernel_source("cursor", patched)
    assert rules_of(findings) == ["c-unchecked-write"]


def test_suppression_is_same_line_only():
    """A disable comment on the line above does not leak downward."""
    patched = CURSOR_SRC.replace(
        CURSOR_LINE,
        "            /* clint: disable=c-unchecked-write */\n" + CURSOR_LINE,
    )
    findings = scan_kernel_source("cursor", patched)
    assert rules_of(findings) == ["c-unchecked-write"]


def test_findings_anchor_to_the_embedding_py_line():
    c_line = CURSOR_SRC.split("\n").index(CURSOR_LINE) + 1
    findings = scan_kernel_source(
        "cursor", CURSOR_SRC,
        rel_path="src/repro/_native/fake.py", literal_line=100,
    )
    (finding,) = findings
    assert finding.path == "src/repro/_native/fake.py"
    assert finding.line == 100 + c_line - 1
    assert finding.message.startswith("[cursor]")


# ----------------------------------------------------------------------
# Baseline round-trip through the shared reporter machinery
# ----------------------------------------------------------------------
def test_baseline_round_trip():
    findings = [
        *scan_kernel_source("leaky", LEAKY_SRC),
        *scan_kernel_source("jitter", NONDET_SRC),
    ]
    assert findings
    entries = baseline_entries(findings)["findings"]
    new, baselined, stale = split_by_baseline(findings, entries)
    assert new == [] and stale == []
    assert len(baselined) == len(findings)

    # drop one accepted entry: that finding is new again
    new, baselined, stale = split_by_baseline(findings, entries[1:])
    assert len(new) == 1 and stale == []

    # an entry with no live finding behind it is stale
    ghost = dict(entries[0], rule="c-malloc-leak", message="gone")
    new, baselined, stale = split_by_baseline(findings, [*entries, ghost])
    assert new == [] and len(stale) == 1


# ----------------------------------------------------------------------
# Discovery and the registry double-entry check
# ----------------------------------------------------------------------
def test_real_tree_is_clean():
    """The shipped kernels carry no unbaselined C finding (the --clint
    gate); any suppression in the tree must be inline and justified."""
    assert check_native_sources() == []


def test_clint_summary_counts_kernel_sources(capsys):
    from repro.analysis.__main__ import main

    sources = native_sources()
    # every kernel construction, nothing else
    assert len(sources) == len(discover_kernels())
    assert "region_replay" in {source.name for source in sources}
    assert main(["--clint"]) == 0
    assert f"across {len(sources)} file(s)" in capsys.readouterr().out


def test_discovery_matches_the_runtime_registry():
    from repro import _native

    discovered = {k.name: k for k in discover_kernels()}
    assert set(discovered) == set(_native.kernel_names())
    for name, kernel in discovered.items():
        assert kernel.source == _native.get_kernel(name).source
        assert kernel.source, f"{name} source not resolved by discovery"
        assert kernel.rel_path.startswith("src/repro/_native/")
        assert kernel.literal_line > 0


def test_registry_cross_check_fires_both_directions():
    discovered = discover_kernels()
    findings = check_native_sources(registered={"ghost_kernel"})
    unreg = [f for f in findings if f.rule == "c-unregistered-kernel"]
    # every real construction is "missing" from the fake registry...
    assert len([f for f in unreg if "dodge the runtime gate" in f.message]) \
        == len(discovered)
    # ...and the fake registration has no construction behind it
    assert any("'ghost_kernel'" in f.message for f in unreg)


def test_discovery_on_a_synthetic_tree(tmp_path):
    module = textwrap.dedent(
        '''
        from .core import NativeKernel

        _SOURCE = r"""
        #include <stdint.h>
        #include <stdlib.h>

        int64_t bad(void)
        {
            return (int64_t)rand();
        }
        """

        ONE = NativeKernel("one", _SOURCE, symbols={},
                           scalar_twin="a:b", vector_twin="a:b")
        TWO = NativeKernel("two", "int x;", symbols={},
                           scalar_twin="a:b", vector_twin=None)
        '''
    )
    (tmp_path / "mod.py").write_text(module)
    kernels = {k.name: k for k in discover_kernels(tmp_path,
                                                   repo_root=tmp_path)}
    assert set(kernels) == {"one", "two"}
    assert kernels["two"].source == "int x;"
    assert "rand()" in kernels["one"].source
    # the _SOURCE binding anchors at the literal, not the call
    assert kernels["one"].literal_line < kernels["one"].call_line

    findings = check_native_sources(
        tmp_path, registered={"one", "two"}, repo_root=tmp_path
    )
    assert rules_of(findings) == ["c-nondeterminism"]
    assert findings[0].path == "mod.py"
