"""Command-line surface: scenario commands, catalog sweeps, certificate replay.

Exit-status contract: 0 all assertions hold; 1 assertion violation (or a
failed replay); 2 usage or parse error; 3 a cap was exceeded inside a
scenario or sweep.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import certificates as certs
from .catalog import DEFAULT_MAX_ORDER, build_catalog, parse_group_spec
from .errors import CapExceeded, GroupError, Caps, DEFAULT_CAPS
from .hall import classify, hall_subgroups, pi_part
from .numth import is_prime
from .pronormal import is_pronormal, is_strongly_pronormal, pronormality_instance
from .subgroup import ConjugacyWitness
from .suites import PROBE_IDS, SUITE_NAMES, run_probe, run_suite
from .constructions import (pointwise_stabilizer, sl2, sl2_subfield_embedding,
                            stabilizer_in_claimed_range, wreath_hall_pair)

DEFAULT_SWEEP_ORDER = 300


def _env_default(name, fallback, cast):
    raw = os.environ.get(f"HALLPERM_{name}")
    if raw is None:
        return fallback
    return cast(raw)


def _parse_pi(text: str):
    primes = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        value = int(tok)
        if not is_prime(value):
            raise ValueError(f"{value} is not prime")
        primes.append(value)
    return frozenset(primes)


def _caps_from_args(args) -> Caps:
    return Caps(enum_cap=args.enum_cap, subgroup_cap=args.subgroup_cap,
                degree_cap=args.degree_cap, hom_check_cap=DEFAULT_CAPS.hom_check_cap)


def _add_common(parser):
    parser.add_argument("--out", default=_env_default("OUT", "certificates", str),
                        help="directory for certificate files")
    parser.add_argument("--enum-cap", type=int,
                        default=_env_default("ENUM_CAP", DEFAULT_CAPS.enum_cap, int))
    parser.add_argument("--subgroup-cap", type=int,
                        default=_env_default("SUBGROUP_CAP", DEFAULT_CAPS.subgroup_cap, int))
    parser.add_argument("--degree-cap", type=int,
                        default=_env_default("DEGREE_CAP", DEFAULT_CAPS.degree_cap, int))


def _write(cert, out_dir):
    path = certs.write_certificate(cert, out_dir)
    print(f"certificate: {path}")
    return path


def _print_analysis(group, label, pi, caps, out_dir):
    verdict = classify(group, pi, caps)
    print(f"group: {label} (degree {group.degree}, order {group.order()})")
    print(f"pi: {{{','.join(str(p) for p in sorted(pi))}}}  pi-part: {verdict.hall_order}")
    print(f"E_pi: {'true' if verdict.satisfies_e else 'false'}")
    print(f"C_pi: {'true' if verdict.satisfies_c else 'false'}")
    print(f"D_pi: {'true' if verdict.satisfies_d else 'false'}")
    print(f"Hall classes: {verdict.class_count}")
    if not verdict.satisfies_e:
        print(f"reason: no subgroup of order {verdict.hall_order}")
    for i, rep in enumerate(verdict.hall_class_reps, 1):
        gens = " ".join(g.cycle_string() for g in rep.group.generators) or "()"
        print(f"  class {i}: order {rep.order()}, generators: {gens}")
        report = is_pronormal(group, rep.group, caps)
        state = {True: "yes", False: "no", None: "indeterminate"}[report.verdict]
        print(f"  class {i} pronormal: {state}")
    # with E false the certificate claims class_count 0, which replay re-sweeps
    _write(certs.hall_classes_certificate(group, pi, verdict.hall_class_reps), out_dir)
    if verdict.d_failure is not None:
        print(f"  covering failure: pi-subgroup of order {verdict.d_failure.order()}")
    return verdict


def cmd_analyze(args) -> int:
    caps = _caps_from_args(args)
    pi = _parse_pi(args.pi)
    group = parse_group_spec(args.group)
    _print_analysis(group, args.group, pi, caps, args.out)
    return 0


def cmd_example1(args) -> int:
    caps = _caps_from_args(args)
    pi = frozenset({3, 5})
    print("scenario example1: the covering-property group sl2(16) and its sl2(4) subgroup")
    big = sl2(16)
    verdict = _print_analysis(big, "sl2:16", pi, caps, args.out)
    ok = (verdict.satisfies_e and verdict.satisfies_c and verdict.satisfies_d
          and verdict.class_count == 1 and verdict.hall_order == 15)
    hom, image = sl2_subfield_embedding(4, 16, caps)
    sub = image.group
    print(f"subfield subgroup sl2(4) inside sl2(16): order {sub.order()}")
    sub_verdict = classify(sub, pi, caps)
    print(f"E_pi: {'true' if sub_verdict.satisfies_e else 'false'}")
    if not sub_verdict.satisfies_e:
        print(f"reason: no subgroup of order {sub_verdict.hall_order}")
        # as in analyze: class_count 0, which replay re-sweeps
        _write(certs.hall_classes_certificate(sub, pi, ()), args.out)
    element_orders = {e.order() for e in sub.elements(caps)}
    print(f"order-15 elements in the subgroup: {'none' if 15 not in element_orders else 'present'}")
    ok = ok and not sub_verdict.satisfies_e and 15 not in element_orders
    print(f"scenario example1: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_example2(args) -> int:
    caps = _caps_from_args(args)
    n, m = args.n, args.m
    handle = pointwise_stabilizer(n, m)
    parent = handle.parent
    in_range = stabilizer_in_claimed_range(n, m)
    print(f"scenario example2 (n={n}, m={m})")
    print(f"subject: pointwise stabilizer of {{{m}..{n - 1}}} in sym:{n} (order {handle.order()})")
    print(f"in claimed range (n/2 < m < n-1): {'yes' if in_range else 'no'}")
    pron = is_pronormal(parent, handle.group, caps)
    strong = is_strongly_pronormal(parent, handle.group, caps)
    state = {True: "yes", False: "no", None: "indeterminate"}
    print(f"pronormal: {state[pron.verdict]}")
    print(f"strongly pronormal: {state[strong.verdict]}")
    if strong.verdict is False:
        fail = strong.failure
        print(f"failing pair: K of order {fail.k.order()} with generators "
              f"{' '.join(g.cycle_string() for g in fail.k.generators)}; "
              f"g = {fail.g.cycle_string()}; joint order {fail.joint.order()}")
        _write(certs.non_strong_pronormality_certificate(parent, strong), args.out)
    if not in_range:
        print("outside the claimed range: result is informational only")
        print(f"scenario example2: PASS")
        return 0
    ok = pron.verdict is True and strong.verdict is False
    print(f"scenario example2: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_theorem3(args) -> int:
    caps = _caps_from_args(args)
    pi = _parse_pi(args.pi)
    p = args.p
    if p in pi:
        print(f"error: p={p} lies in pi; the construction requires p outside pi", file=sys.stderr)
        return 2
    base = parse_group_spec(args.base)
    print(f"scenario theorem3 (base={args.base}, pi={{{','.join(map(str, sorted(pi)))}}}, p={p})")
    reps = hall_subgroups(base, pi, caps)
    print(f"base Hall classes: {len(reps)} (orders {[r.order() for r in reps]})")
    if len(reps) < 2:
        print("base group has at most one Hall class; the construction needs a group "
              "with a Hall subgroup but more than one class", file=sys.stderr)
        return 2
    u, v = reps[0], reps[1]
    _write(certs.hall_classes_certificate(base, pi, reps), args.out)
    pair = wreath_hall_pair(base, u, v, pi, p, caps)
    g = pair.wreath.group
    h = pair.hall_first.group
    k = pair.hall_second.group
    expected = base.order() ** p * p
    print(f"G: {g.provenance} degree {g.degree} order {g.order()}"
          f" (= {base.order()}^{p} * {p}: {'verified' if g.order() == expected else 'MISMATCH'})")
    target = pi_part(g.order(), pi)
    print(f"H, K orders: {h.order()}, {k.order()} (pi-part {target}:"
          f" {'verified' if h.order() == k.order() == target else 'MISMATCH'})")
    tau = pair.tau
    tau_ok = all(k.contains(x.conj(tau)) for x in h.generators)
    print(f"H^tau = K: {'verified' if tau_ok else 'MISMATCH'}")
    _write(certs.conjugacy_witness_certificate(g, ConjugacyWitness(tau, h, k)), args.out)
    inst = pronormality_instance(g, h, tau, caps)
    if inst.verdict is False:
        fail = inst.failure
        print(f"H vs H^tau in <H, H^tau>: not conjugate ({fail.mode}"
              + (f", failing block {fail.failing_block}" if fail.failing_block is not None else "")
              + ")")
        print("H pronormal in G: no (witness tau)")
        _write(certs.non_pronormality_certificate(g, inst, pi=pi), args.out)
    ok = (inst.verdict is False and tau_ok and g.order() == expected
          and h.order() == k.order() == target)
    print(f"scenario theorem3: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_suite(args) -> int:
    caps = _caps_from_args(args)
    result = run_suite(args.name, args.max_order, caps, jobs=args.jobs)
    if result.group_count == 0:
        print(f"warning: empty catalog at max order {args.max_order}; vacuous pass")
    for line in result.summary_lines():
        print(line)
    for cert in result.certificates:
        _write(cert, args.out)
    if result.violations or result.indeterminates:
        return 1
    if result.cap_hits:
        return 3
    return 0


def cmd_probe(args) -> int:
    caps = _caps_from_args(args)
    result = run_probe(args.conjecture, args.max_order, caps, jobs=args.jobs)
    if result.group_count == 0:
        print(f"warning: empty catalog at max order {args.max_order}")
    for line in result.summary_lines():
        print(line)
    for cert in result.certificates:
        _write(cert, args.out)
    if result.findings:
        print(f"probe {args.conjecture}: {len(result.findings)} finding(s) certified "
              "(a finding never fails the probe; replay it with `verify`)")
    else:
        print(f"probe {args.conjecture}: no findings")
    return 0


def cmd_catalog(args) -> int:
    for entry in build_catalog(args.max_order):
        print(f"{entry.name}  degree={entry.group.degree}  order={entry.group.order()}")
    return 0


def cmd_verify(args) -> int:
    caps = _caps_from_args(args)
    all_ok = True
    for path in args.certificates:
        try:
            cert = certs.load_certificate(path)
        except (OSError, ValueError) as exc:
            print(f"FAIL {path}: unreadable ({exc})")
            all_ok = False
            continue
        ok, detail = certs.verify_certificate(cert, caps)
        print(f"{'OK' if ok else 'FAIL'} {path}: {detail}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallperm",
        description="Hall-subgroup classes, pronormality testers and "
                    "certified counterexample scenarios for finite permutation groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify one group for one prime set")
    p.add_argument("--group", required=True, help="group spec, e.g. psl2:16 or product(sym:3,sym:3)")
    p.add_argument("--pi", required=True, help="comma-separated primes, e.g. 3,5")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("example1", help="covering-property group with a subgroup missing Hall subgroups")
    _add_common(p)
    p.set_defaults(func=cmd_example1)

    p = sub.add_parser("example2", help="pronormal but not strongly pronormal stabilizer in sym:n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_example2)

    p = sub.add_parser("theorem3", help="wreath-product Hall pair that defeats pronormality")
    p.add_argument("--base", default="psl2:7", help="base group spec (needs >= 2 Hall classes)")
    p.add_argument("--pi", default="2,3")
    p.add_argument("--p", type=int, default=5, help="prime outside pi")
    _add_common(p)
    p.set_defaults(func=cmd_theorem3)

    p = sub.add_parser("suite", help="run an assertion suite over the catalog")
    p.add_argument("name", choices=SUITE_NAMES)
    p.add_argument("--max-order", type=int,
                   default=_env_default("MAX_ORDER", DEFAULT_SWEEP_ORDER, int))
    p.add_argument("--jobs", type=int, default=_env_default("JOBS", 1, int))
    _add_common(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("probe", help="search the catalog for conjecture counterexamples")
    p.add_argument("conjecture", choices=list(PROBE_IDS))
    p.add_argument("--max-order", type=int,
                   default=_env_default("MAX_ORDER", DEFAULT_SWEEP_ORDER, int))
    p.add_argument("--jobs", type=int, default=_env_default("JOBS", 1, int))
    _add_common(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("catalog", help="list the deterministic group catalog")
    p.add_argument("--max-order", type=int,
                   default=_env_default("MAX_ORDER", DEFAULT_MAX_ORDER, int))
    _add_common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", help="replay certificate files in a fresh process")
    p.add_argument("certificates", nargs="+")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GroupError as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
