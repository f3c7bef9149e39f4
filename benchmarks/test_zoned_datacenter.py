"""Zoned datacenter study (paper §IX: "multiple energy saving methods").

A mixed deployment: the TPC-C database zone keeps full performance
(no power saving), while an archive zone modelled by the File Server
workload runs the proposed method.  The zoned composition must deliver
the archive zone's savings without touching the database zone.
"""

from functools import lru_cache

from repro import units
from repro.analysis.report import PaperRow, render_table, watts
from repro.baselines.nopower import NoPowerSavingPolicy
from repro.baselines.zoned import Zone, ZonedPolicy
from repro.config import DEFAULT_CONFIG
from repro.core.manager import EnergyEfficientPolicy
from repro.simulation import build_context
from repro.trace.replay import TraceReplayer
from repro.workloads import build_fileserver_workload, build_oltp_workload

DURATION = 4000.0


def build_mixed_workload():
    """TPC-C on enclosures 0-9, File Server on 10-21."""
    oltp = build_oltp_workload(duration=DURATION)
    archive = build_fileserver_workload(duration=DURATION)
    records = sorted([*oltp.records, *archive.records])
    return oltp, archive, records


@lru_cache(maxsize=None)
def run_mixed(zoned: bool):
    oltp, archive, records = build_mixed_workload()
    total = oltp.enclosure_count + archive.enclosure_count
    context = build_context(DEFAULT_CONFIG, total)
    names = context.enclosure_names()
    oltp_names = tuple(names[: oltp.enclosure_count])
    archive_names = tuple(names[oltp.enclosure_count:])

    from repro.simulation import default_volume

    for item in oltp.items:
        volume = default_volume(names[item.enclosure_index])
        context.virtualization.add_item(item.item_id, item.size_bytes, volume)
        context.app_monitor.register_item(item.item_id, volume)
    for volume_name, index in archive.volumes:
        context.virtualization.create_volume(
            volume_name, archive_names[index]
        )
    for item in archive.items:
        volume = item.volume or default_volume(
            archive_names[item.enclosure_index]
        )
        context.virtualization.add_item(item.item_id, item.size_bytes, volume)
        context.app_monitor.register_item(item.item_id, volume)

    if zoned:
        policy = ZonedPolicy(
            [
                Zone("oltp", oltp_names, NoPowerSavingPolicy()),
                Zone("archive", archive_names, EnergyEfficientPolicy()),
            ]
        )
    else:
        policy = NoPowerSavingPolicy()
    result = TraceReplayer(context, policy).run(records, duration=DURATION)

    def zone_watts(zone_names):
        return sum(
            context.virtualization.enclosure(n).energy_joules()
            for n in zone_names
        ) / result.duration_seconds

    return {
        "total": result.power.enclosure_watts,
        "oltp": zone_watts(oltp_names),
        "archive": zone_watts(archive_names),
        "response": result.mean_response,
    }


def test_zoned_datacenter(benchmark, report):
    baseline = benchmark.pedantic(
        run_mixed, args=(False,), rounds=1, iterations=1
    )
    zoned = run_mixed(True)

    rows = [
        PaperRow(
            label=f"{zone} zone",
            paper="§IX: multiple methods per datacenter",
            measured=f"{watts(baseline[zone])} -> {watts(zoned[zone])}",
        )
        for zone in ("oltp", "archive", "total")
    ]
    report(render_table("Zoned datacenter — mixed-tier deployment", rows))

    # The unmanaged OLTP zone is untouched (within noise)...
    assert abs(zoned["oltp"] - baseline["oltp"]) < 0.02 * baseline["oltp"]
    # ...while the managed archive zone shows a clear saving (the short
    # 4000 s run is warm-up-dominated; the full 6 h run reaches ~30 %)...
    archive_saving = 1 - zoned["archive"] / baseline["archive"]
    assert archive_saving > 0.05
    # ...and the total reflects exactly the archive zone's saving.
    expected_total = baseline["total"] - (
        baseline["archive"] - zoned["archive"]
    )
    assert zoned["total"] < expected_total * 1.02
