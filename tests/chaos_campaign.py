#!/usr/bin/env python3
"""Chaos campaign: sweep every registered fault site across a small driver
run and assert each lands in the documented exit-code taxonomy
(docs/ROBUSTNESS.md; wired as the `chaos-smoke` CI job).

The campaign enumerates the compiled-in site catalogue through
`ptatin_driver -list_fault_sites` (FaultInjector::known_sites()), so a fault
site added to the code without a scenario here -- or a scenario naming a
site that no longer exists -- fails loudly instead of silently testing
nothing. For every site it arms `site:first-fire` (the earliest call the
site observes), runs the scenario, and checks:

  * the exit code is one of the codes the taxonomy documents for that
    failure class (0 recovered, 3 checkpoint, 6 unrecoverable SDC, ...);
  * the spec actually fired: the driver disarms the injector at exit, which
    warns "never fired" for armed-but-unfired specs, and the campaign treats
    that warning in a faulted run as a failure (a fault that never fires
    proves nothing);
  * any site-specific log marker (e.g. "state healed" for the SDC heal);
  * for a run that names expected `sdc` counts, the run's solver report
    (written with --telemetry) holds exactly those counts.

Two end-to-end SDC checks ride along (ISSUE 8 acceptance): a run with an
injected `sdc.field_bitflip` / `sdc.krylov_drift` fault must be detected,
healed by a same-dt replay, and finish with a `-final_state` digest bitwise
identical to the fault-free run; and a typo'd site name must draw the
never-fired warning.

Usage: chaos_campaign.py /path/to/ptatin_driver [--only SITE] [--keep TMP]
"""

import argparse
import json
import shutil
import subprocess
import sys
import tempfile

RUN_TIMEOUT_S = 300

# Documented driver exit codes (ptatin/exit_codes.hpp; `-help` taxonomy).
TAXONOMY = {0, 1, 2, 3, 4, 6}


class Run:
    """One driver invocation of a scenario: extra flags beyond the base
    model run, the armed fault spec (None = clean run), and the exit codes
    the taxonomy allows for it."""

    def __init__(self, flags=(), fault=None, expect=(0,), must_log=None,
                 model=None, sdc=None):
        self.flags = list(flags)
        self.fault = fault
        self.expect = set(expect)
        self.must_log = must_log
        self.model = model  # None = the default sinker base run
        self.sdc = sdc  # expected solver-report sdc counts (None = unchecked)


def base_cmd(driver, model=None):
    # -verbose: the default log level is silent, and the campaign's markers
    # ("fault injected", "state healed", "never fired") come from log_warn.
    if model == "rifting":
        # The Stokes outer Krylov is GCR (explicit residual -- no recurrence
        # to drift), so the sentinel's end-to-end path is the energy solve's
        # GMRES, which only the rifting model runs.
        return [driver, "-model", "rifting", "-mx", "6", "-steps", "2",
                "-verbose"]
    return [driver, "-model", "sinker", "-m", "6", "-steps", "3", "-verbose"]


def scenarios(tmp):
    """site -> list of Runs. Ordering inside a list matters (checkpoint
    scenarios write a rotation first, then restart against it)."""
    ck = f"{tmp}/ck"
    ckflags = ["-checkpoint_dir", ck, "-checkpoint_every", "1"]
    return {
        # Solver-tier faults: one corrupted call, rolled back and retried at
        # a cut dt -- the run recovers (exit 0).
        "ksp.rnorm": [Run(fault="ksp.rnorm:1:nan:1")],
        "ksp.breakdown": [Run(fault="ksp.breakdown:1:zero:1")],
        "nonlin.rnorm": [Run(fault="nonlin.rnorm:2:nan:1")],
        "nonlin.linsolve": [Run(fault="nonlin.linsolve:1:error:1")],
        # Checkpoint-tier faults. A failed save degrades to an unguarded
        # step (0). Corruption planted at write time (torn publish, bit
        # flip) must be caught by CRC on the restart read, which falls back
        # to the previous checkpoint (0) or exits 3 when none is loadable.
        "checkpoint.write": [
            Run(flags=ckflags, fault="checkpoint.write:1:error:1"),
        ],
        "checkpoint.read": [
            Run(flags=ckflags),
            Run(flags=["-restart", ck], fault="checkpoint.read:1:error:1",
                expect={0, 3}),
        ],
        "checkpoint.torn_write": [
            Run(flags=ckflags, fault="checkpoint.torn_write:3:error:1"),
            Run(flags=["-restart", ck], expect={0, 3},
                must_log="skipped corrupt checkpoint"),
        ],
        "checkpoint.bitflip": [
            Run(flags=ckflags, fault="checkpoint.bitflip:3:error:1"),
            Run(flags=["-restart", ck], expect={0, 3},
                must_log="skipped corrupt checkpoint"),
        ],
        # Health-tier: a poisoned field trips the health pass, rolls back,
        # and the retry recovers.
        "health.field_nan": [
            Run(flags=["-health_every", "1"],
                fault="health.field_nan:1:error:1"),
        ],
        # SDC-tier (docs/ROBUSTNESS.md). Bit flips in sealed *model state*
        # are healed from the last good snapshot and replayed at the same dt
        # (exit 0). A flip in sealed *operator* data (-seal_operators true)
        # fails the poisoned solve (post-solve seal verify) and heals by
        # rebuilding the hierarchy on the same-dt replay -- one detection,
        # one heal -- unless the corruption recurs on every rebuild (count
        # '*'), which exhausts the replays and exits 6.
        # A Krylov recurrence drifted off the true residual trips the
        # sentinel and heals by same-dt replay; the end-to-end sentinel path
        # is the rifting model's energy GMRES (the Stokes outer is GCR).
        "sdc.field_bitflip": [
            Run(fault="sdc.field_bitflip:1:error:1", must_log="state healed"),
        ],
        "sdc.particle_bitflip": [
            Run(fault="sdc.particle_bitflip:1:error:1",
                must_log="state healed"),
        ],
        "sdc.matrix_bitflip": [
            Run(flags=["-seal_operators", "true"],
                fault="sdc.matrix_bitflip:1:error:1",
                must_log="setup-immutable operator corrupted",
                sdc={"detections": 1, "heals": 1}),
            Run(flags=["-seal_operators", "true"],
                fault="sdc.matrix_bitflip:1:error:*", expect={6},
                must_log="beyond recovery"),
        ],
        "sdc.krylov_drift": [
            Run(flags=["-sentinel_every", "2"],
                fault="sdc.krylov_drift:1:error:1", must_log="diverged_sdc",
                model="rifting"),
        ],
    }


def run_driver(cmd):
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    return p.returncode, p.stdout + p.stderr


def list_sites(driver):
    code, out = run_driver([driver, "-list_fault_sites"])
    assert code == 0, f"-list_fault_sites exited {code}:\n{out}"
    sites = []
    for line in out.splitlines():
        if "\t" in line:
            sites.append(line.split("\t", 1)[0])
    assert sites, f"no sites parsed from -list_fault_sites output:\n{out}"
    return sites


def sweep(driver, tmp, only=None):
    sites = list_sites(driver)
    plans = scenarios(tmp)
    missing = [s for s in sites if s not in plans]
    stale = [s for s in plans if s not in sites]
    assert not missing, f"fault sites without a chaos scenario: {missing}"
    assert not stale, f"chaos scenarios for unregistered sites: {stale}"

    failures = []
    for site in sites:
        if only and site != only:
            continue
        shutil.rmtree(f"{tmp}/ck", ignore_errors=True)
        for i, run in enumerate(plans[site]):
            cmd = base_cmd(driver, run.model) + run.flags
            if run.fault:
                cmd += ["-faults", run.fault]
            telemetry = f"{tmp}/telemetry"
            if run.sdc:
                shutil.rmtree(telemetry, ignore_errors=True)
                cmd += ["--telemetry", telemetry]
            code, out = run_driver(cmd)
            tag = f"{site}[{i}]"
            problems = []
            if code not in run.expect:
                problems.append(f"exit {code}, expected one of "
                                f"{sorted(run.expect)}")
            if code not in TAXONOMY:
                problems.append(f"exit {code} outside the documented "
                                f"taxonomy {sorted(TAXONOMY)}")
            if run.fault and "never fired" in out:
                problems.append("armed spec never fired (site not reached "
                                "by this scenario)")
            if run.must_log and run.must_log not in out:
                problems.append(f"log marker {run.must_log!r} not found")
            if run.sdc:
                try:
                    with open(f"{telemetry}/solver_report.json") as f:
                        got = json.load(f)["sdc"]
                except (OSError, ValueError, KeyError) as e:
                    got = {"unreadable report": str(e)}
                if any(got.get(k) != n for k, n in run.sdc.items()):
                    problems.append(f"report sdc section {got}, expected "
                                    f"{run.sdc}")
            if problems:
                failures.append(f"{tag}: " + "; ".join(problems) +
                                f"\n  cmd: {' '.join(cmd)}\n--- output ---\n"
                                f"{out}\n--------------")
                print(f"FAIL {tag}")
            else:
                print(f"ok   {tag} (exit {code})")
    return failures


def final_state(driver, tmp, name, extra, model=None):
    path = f"{tmp}/{name}.json"
    cmd = base_cmd(driver, model) + ["-final_state", path] + extra
    code, out = run_driver(cmd)
    assert code == 0, f"{name}: exit {code}\n{out}"
    with open(path) as f:
        return json.load(f), out


def check_heal_digests(driver, tmp):
    """ISSUE 8 acceptance: injected sdc.field_bitflip / sdc.krylov_drift are
    detected, healed via same-dt replay, and the healed run's -final_state
    digest is bitwise equal to a fault-free run's. The field-bitflip run's
    solver report must count exactly that one detection and one heal."""
    ref, _ = final_state(driver, tmp, "ref", [])
    telemetry = f"{tmp}/healed_telemetry"
    healed, out = final_state(driver, tmp, "healed",
                              ["-faults", "sdc.field_bitflip:1:error:1",
                               "--telemetry", telemetry])
    assert "state healed" in out, f"field_bitflip heal not logged:\n{out}"
    assert healed == ref, f"healed field_bitflip digest differs:\n{healed}\n{ref}"
    with open(f"{telemetry}/solver_report.json") as f:
        sdc = json.load(f)["sdc"]
    assert sdc["detections"] == 1 and sdc["heals"] == 1, \
        f"field_bitflip report sdc section: {sdc}"
    # The sentinel's end-to-end path is the rifting model's energy GMRES
    # (the Stokes outer is GCR), so the drift heal compares against a
    # rifting reference carrying the same sentinel flag.
    rref, _ = final_state(driver, tmp, "rift_ref", ["-sentinel_every", "2"],
                          model="rifting")
    drift, out = final_state(
        driver, tmp, "drift",
        ["-sentinel_every", "2", "-faults", "sdc.krylov_drift:1:error:1"],
        model="rifting")
    assert "diverged_sdc" in out, f"krylov_drift trip not logged:\n{out}"
    assert drift == rref, f"healed krylov_drift digest differs:\n{drift}\n{rref}"
    # The sentinel and the operator seals only *read*: enabling them on a
    # clean run must not perturb the trajectory.
    clean, _ = final_state(driver, tmp, "clean",
                           ["-sentinel_every", "2", "-seal_operators", "true"])
    assert clean == ref, f"sentinel/seals perturbed a clean run:\n{clean}\n{ref}"
    print("ok   heal-digest identity (field_bitflip, krylov_drift, clean "
          "sentinel+seals)")


def check_typo_warning(driver):
    """A typo'd site name silently tests nothing -- except the injector now
    warns at teardown, and this campaign would flag it."""
    code, out = run_driver(base_cmd(driver) + ["-faults", "sdc.fieldbitflip:1"])
    assert code == 0, f"typo run exited {code}:\n{out}"
    assert "never fired" in out, f"no never-fired warning for a typo'd site:\n{out}"
    print("ok   typo'd site name draws the never-fired warning")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("driver", help="path to ptatin_driver")
    ap.add_argument("--only", help="sweep a single site")
    ap.add_argument("--keep", help="use (and keep) this scratch dir")
    args = ap.parse_args()

    tmp = args.keep or tempfile.mkdtemp(prefix="chaos_campaign.")
    try:
        failures = sweep(args.driver, tmp, only=args.only)
        if not args.only:
            check_typo_warning(args.driver)
            check_heal_digests(args.driver, tmp)
    finally:
        if not args.keep:
            shutil.rmtree(tmp, ignore_errors=True)
    if failures:
        print(f"\n{len(failures)} scenario(s) failed:\n")
        print("\n".join(failures))
        return 1
    print("\nchaos campaign: every fault site landed in the documented "
          "exit-code taxonomy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
