"""The shared dataclass dict codec, over every class that uses it."""

import json
import re

import pytest

from repro.netsim.faults import (DelaySpike, DistributorLag, FaultPlan,
                                 LinkDown, LossBurst, QuerierCrash,
                                 ServerPause)
from repro.replay.supervisor import ReplayCheckpoint, SupervisionConfig
from repro.server.cache import CacheConfig
from repro.server.overload import (AdmissionConfig, CookieConfig,
                                   OverloadConfig, RrlConfig)

# Per class: a value, the dict an earlier release wrote for it (it must
# keep decoding), and malformed inputs with the key path each names.
CASES = {
    "cache": (
        CacheConfig(max_entries=400, serve_stale=True),
        {"max_entries": 400, "serve_stale": True, "stale_ttl": 3600.0,
         "stale_answer_ttl": 30, "prefetch": False,
         "prefetch_fraction": 0.1, "prefetch_top_k": 64,
         "prefetch_min_hits": 3},
        [({"max_entrees": 10}, "max_entrees")],
    ),
    "overload": (
        OverloadConfig(rrl=RrlConfig(rate=5.0), cookies=CookieConfig(),
                       admission=AdmissionConfig(limit=64,
                                                 soft_limit=32)),
        {"rrl": {"rate": 5.0, "burst": None, "slip": 2,
                 "prefix_len": 24, "table_size": 10000,
                 "exempt_verified": True},
         "cookies": {"secret": 7977205266, "nocookie_scale": 0.5},
         "admission": {"limit": 64, "soft_limit": 32}},
        [({"turbo": True}, "turbo"),
         ({"rrl": {"rate": 5.0, "turbo": True}}, "rrl.turbo")],
    ),
    "supervision": (
        SupervisionConfig(checkpoint_interval=0.5),
        {"heartbeat_interval": 0.05, "detection_timeout": 0.25,
         "high_water": 512, "queue_policy": "stall",
         "checkpoint_interval": 0.5, "checkpoint_guard": 0.01},
        [({"high_watter": 4}, "high_watter")],
    ),
    "checkpoint": (
        ReplayCheckpoint(time=1.5, seed=7,
                         controllers=[{"records_read": 3}],
                         distributors=[],
                         queriers=[{"name": "q0", "next_id": 5}],
                         server={"handled": 9}, counters={"sent": 3}),
        {"version": 1, "time": 1.5, "seed": 7,
         "controllers": [{"records_read": 3}], "distributors": [],
         "queriers": [{"name": "q0", "next_id": 5}],
         "server": {"handled": 9}, "counters": {"sent": 3}},
        [({"version": 1, "time": 1.5, "seed": 7, "controllers": [],
           "distributors": [], "queriers": [], "server": {},
           "counters": {}, "extra": 1}, "extra"),
         ({"version": 1, "seed": 7, "controllers": [],
           "distributors": [], "queriers": [], "server": {},
           "counters": {}}, "time")],
    ),
    "fault_plan": (
        FaultPlan([LossBurst(1.0, 2.0, 0.3, hosts=("a", "b")),
                   DelaySpike(0.5, 1.0, 0.05), LinkDown(3.0, 0.5),
                   ServerPause(4.0, 1.0, host="ns1", restart=True),
                   QuerierCrash(2.0, "querier-0"),
                   DistributorLag(1.0, 2.0, "dist-0", factor=4.0)]),
        {"events": [
            {"kind": "loss_burst", "start": 1.0, "duration": 2.0,
             "loss": 0.3, "hosts": ["a", "b"]},
            {"kind": "delay_spike", "start": 0.5, "duration": 1.0,
             "extra_delay": 0.05},
            {"kind": "link_down", "start": 3.0, "duration": 0.5},
            {"kind": "server_pause", "start": 4.0, "duration": 1.0,
             "host": "ns1", "restart": True},
            {"kind": "querier_crash", "start": 2.0, "duration": 0.0,
             "target": "querier-0"},
            {"kind": "distributor_lag", "start": 1.0, "duration": 2.0,
             "target": "dist-0", "factor": 4.0}]},
        [({"evnts": []}, "evnts"),
         ({"events": [{"kind": "link_down", "start": 0.0,
                       "duration": 1.0, "hsts": ["a"]}]},
          "events[0].hsts"),
         ({"events": [{"kind": "link_down", "duration": 1.0}]},
          "events[0].start"),
         ({"events": [{"start": 0.0, "duration": 1.0}]},
          "events[0].kind")],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_dict_codec(name):
    value, legacy, malformed = CASES[name]
    cls = type(value)
    wire = json.loads(json.dumps(value.to_dict()))
    assert cls.from_dict(wire) == value
    assert cls.from_dict(legacy) == value
    for data, path in malformed:
        with pytest.raises(ValueError, match=re.escape(repr(path))):
            cls.from_dict(data)
