"""Synthetic fixture generators.

``purdue_fixture`` builds an industrial-style segmented network (six zones,
configurable host count via replication) together with a catalog large
enough to stress grounding and enumeration. ``random_fixture`` builds small
randomized network/catalog pairs for oracle-equivalence and property suites.
``dense_fixture`` builds a network where every host is exploitable, so the
number of short exploit sets, not the catalog, sets the search effort.

All three return plain dicts in the documented network/catalog JSON shapes, so
they can be fed to ``network_from_dict``/``records_from_dict`` or dumped to
files.
"""
from __future__ import annotations

import random

# --- Purdue-style network ------------------------------------------------------
#
# Zones overlap to form the attack path
#   internet -> enterprise -> business -> ot_dmz -> ot
# The exploitable surface is deliberately sparse: the only way into the
# business layer is the web_server2 -> data1 trusted channel, which keeps
# enumeration tractable while chains still fan out over the OT DMZ pivots
# and the final escalation step. Hosts without listeners (guests, corp) can
# never be reached; their products carry the catalog padding, which adds
# domain actions without widening the search frontier.

_PURDUE_BASE = [
    ("web_server1", ["internet", "enterprise"], [
        ("cpe:2.3:o:debian:debian_linux:10.0.0:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:apache:log4j:2.14.0:*:*:*:*:*:*:*", True, False),
    ]),
    ("web_server2", ["internet", "enterprise"], [
        ("cpe:2.3:o:debian:debian_linux:10.0.0:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:apache:log4j:2.14.0:*:*:*:*:*:*:*", True, False),
    ]),
    ("web_server3", ["internet", "enterprise"], [
        ("cpe:2.3:o:debian:debian_linux:10.0.0:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:apache:log4j:2.14.0:*:*:*:*:*:*:*", True, False),
    ]),
    ("guest1", ["internet", "guest"], [
        ("cpe:2.3:o:microsoft:windows_7:6.1.0:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:gog:galaxy:2.0.12:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:mozilla:firefox:10.0.12:*:*:*:*:*:*:*", False, False),
    ]),
    ("guest2", ["internet", "guest"], [
        ("cpe:2.3:o:google:android:4.1.2:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:opencontainers:runc:1.1.11:*:*:*:*:*:*:*", False, False),
    ]),
    ("corp1", ["enterprise", "business"], [
        ("cpe:2.3:o:linux:linux_kernel:4.12.6:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:vmware:player:5.0.2:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:freebsd:libfetch:1.0.0:*:*:*:*:*:*:*", False, False),
    ]),
    ("corp2", ["enterprise", "business"], [
        ("cpe:2.3:o:linux:linux_kernel:4.12.6:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:vmware:player:5.0.2:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:opencontainers:runc:1.1.11:*:*:*:*:*:*:*", False, False),
    ]),
    ("data1", ["business", "ot_dmz"], [
        ("cpe:2.3:o:linux:linux_kernel:4.12.6:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:apache:couchdb:2.0.0:*:*:*:*:*:*:*", True, False),
    ]),
    ("data2", ["business", "ot_dmz"], [
        ("cpe:2.3:o:linux:linux_kernel:4.12.6:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:apache:couchdb:2.0.0:*:*:*:*:*:*:*", True, False),
    ]),
    ("data3", ["business", "ot_dmz"], [
        ("cpe:2.3:o:linux:linux_kernel:4.12.6:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:apache:couchdb:3.1.1:*:*:*:*:*:*:*", True, False),
    ]),
    ("lan1", ["ot_dmz", "ot"], [
        ("cpe:2.3:o:linux:linux_kernel:4.12.6:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:elastic:kibana:6.6.0:*:*:*:*:*:*:*", True, False),
    ]),
    ("lan2", ["ot_dmz", "ot"], [
        ("cpe:2.3:a:elastic:kibana:6.6.0:*:*:*:*:*:*:*", True, False),
    ]),
    ("lan3", ["ot_dmz", "ot"], [
        ("cpe:2.3:a:elastic:kibana:6.6.0:*:*:*:*:*:*:*", True, False),
    ]),
    ("lan4", ["ot_dmz", "ot"], [
        ("cpe:2.3:o:microsoft:windows_server_2012:6.2.0:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:anydesk:anydesk:5.5.2:*:*:*:*:*:*:*", False, True),
    ]),
    ("lan5", ["ot_dmz", "ot"], [
        ("cpe:2.3:o:microsoft:windows_server_2012:6.2.0:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:anydesk:anydesk:5.5.2:*:*:*:*:*:*:*", False, True),
    ]),
    ("scada1", ["ot"], [
        ("cpe:2.3:o:microsoft:windows:10.0.0:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:berlios:gpsd:2.7.0:*:*:*:*:*:*:*", False, True),
    ]),
    ("scada2", ["ot"], [
        ("cpe:2.3:o:microsoft:windows:10.0.0:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:berlios:gpsd:2.7.0:*:*:*:*:*:*:*", False, True),
    ]),
    ("scada3", ["ot"], [
        ("cpe:2.3:o:microsoft:windows:10.0.0:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:7t:igss:1.0.0:*:*:*:*:*:*:*", True, False),
    ]),
    ("scada4", ["ot"], [
        ("cpe:2.3:o:microsoft:windows:10.0.0:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:schneider_electric:citectscada:7.0.0:*:*:*:*:*:*:*", True, False),
    ]),
    ("scada5", ["ot"], [
        ("cpe:2.3:o:microsoft:windows:10.0.0:*:*:*:*:*:*:*", False, False),
        ("cpe:2.3:a:schneider_electric:citectscada:7.0.0:*:*:*:*:*:*:*", True, False),
    ]),
    ("hmi1", ["ot"], [
        ("cpe:2.3:o:microsoft:windows:10.0.0:*:*:*:*:*:*:*", False, False),
    ]),
]

# patched versions assigned to replicated hosts (services still listen)
_PATCHED = {
    "cpe:2.3:a:apache:log4j:2.14.0:*:*:*:*:*:*:*":
        "cpe:2.3:a:apache:log4j:2.17.1:*:*:*:*:*:*:*",
    "cpe:2.3:a:anydesk:anydesk:5.5.2:*:*:*:*:*:*:*":
        "cpe:2.3:a:anydesk:anydesk:6.1.0:*:*:*:*:*:*:*",
    "cpe:2.3:a:apache:couchdb:2.0.0:*:*:*:*:*:*:*":
        "cpe:2.3:a:apache:couchdb:3.1.1:*:*:*:*:*:*:*",
    "cpe:2.3:a:elastic:kibana:6.6.0:*:*:*:*:*:*:*":
        "cpe:2.3:a:elastic:kibana:7.10.0:*:*:*:*:*:*:*",
    "cpe:2.3:a:schneider_electric:citectscada:7.0.0:*:*:*:*:*:*:*":
        "cpe:2.3:a:schneider_electric:citectscada:7.4.0:*:*:*:*:*:*:*",
    "cpe:2.3:a:7t:igss:1.0.0:*:*:*:*:*:*:*":
        "cpe:2.3:a:7t:igss:14.0.0:*:*:*:*:*:*:*",
    "cpe:2.3:a:berlios:gpsd:2.7.0:*:*:*:*:*:*:*":
        "cpe:2.3:a:berlios:gpsd:3.0.0:*:*:*:*:*:*:*",
}

# chain-critical exploits: (id, name, class, config cpe)
_PURDUE_EXPLOITS = [
    ("apache_log4j_jndi_ldap_rce", "Apache Log4j JNDI LDAP remote code execution",
     "RCE_TCP_N_L", "cpe:2.3:a:apache:log4j:2.14.0:*:*:*:*:*:*:*"),
    ("apache_couchdb_arbitrary_command_execution",
     "Apache CouchDB arbitrary command execution",
     "RCE_TCP_N_H", "cpe:2.3:a:apache:couchdb:2.0.0:*:*:*:*:*:*:*"),
    ("kibana_timelion_prototype_pollution", "Kibana Timelion prototype pollution",
     "RCE_TCP_N_L", "cpe:2.3:a:elastic:kibana:6.6.0:*:*:*:*:*:*:*"),
    ("anydesk_discovery_format_string", "AnyDesk UDP discovery format string",
     "RCE_UDP_N_L", "cpe:2.3:a:anydesk:anydesk:5.5.2:*:*:*:*:*:*:*"),
    ("citectscada_odbc_overflow", "CitectSCADA ODBC service overflow",
     "RCE_TCP_N_H", "cpe:2.3:a:schneider_electric:citectscada:7.0.0:*:*:*:*:*:*:*"),
    ("igss_data_server_command_injection", "IGSS data server command injection",
     "RCE_TCP_N_H", "cpe:2.3:a:7t:igss:1.0.0:*:*:*:*:*:*:*"),
    ("berlios_gpsd_format_string", "Berlios GPS daemon format string",
     "RCE_UDP_N_H", "cpe:2.3:a:berlios:gpsd:2.7.0:*:*:*:*:*:*:*"),
    ("linux_kernel_waitid_pe", "Linux kernel waitid privilege escalation",
     "PE_L_R", "cpe:2.3:o:linux:linux_kernel:4.12.6:*:*:*:*:*:*:*"),
    ("debian_pkexec_pe", "Debian pkexec local privilege escalation",
     "PE_L_R", "cpe:2.3:o:debian:debian_linux:10.0.0:*:*:*:*:*:*:*"),
    ("windows_token_duplication_pe", "Windows token duplication elevation",
     "PE_L_R", "cpe:2.3:o:microsoft:windows:10.0.0:*:*:*:*:*:*:*"),
    ("windows_win32k_elevation_pe", "Windows Win32k elevation of privilege",
     "PE_H_R", "cpe:2.3:o:microsoft:windows:10.0.0:*:*:*:*:*:*:*"),
    ("windows_spooler_privilege_pe", "Windows print spooler privilege escalation",
     "PE_L_R", "cpe:2.3:o:microsoft:windows:10.0.0:*:*:*:*:*:*:*"),
    ("windows_installer_service_pe", "Windows installer service elevation",
     "PE_H_R", "cpe:2.3:o:microsoft:windows:10.0.0:*:*:*:*:*:*:*"),
    ("windows_com_cross_session_pe", "Windows COM cross-session activation elevation",
     "PE_L_R", "cpe:2.3:o:microsoft:windows:10.0.0:*:*:*:*:*:*:*"),
]

# padding products live only on hosts that have no exploitable listener, so
# their exploits enlarge the domain but can never become applicable
_PADDING_PRODUCTS = [
    ("cpe:2.3:a:gog:galaxy:2.0.12:*:*:*:*:*:*:*", "gog_galaxy"),
    ("cpe:2.3:a:mozilla:firefox:10.0.12:*:*:*:*:*:*:*", "mozilla_firefox"),
    ("cpe:2.3:o:google:android:4.1.2:*:*:*:*:*:*:*", "android"),
    ("cpe:2.3:a:vmware:player:5.0.2:*:*:*:*:*:*:*", "vmware_player"),
    ("cpe:2.3:a:freebsd:libfetch:1.0.0:*:*:*:*:*:*:*", "freebsd_libfetch"),
    ("cpe:2.3:a:opencontainers:runc:1.1.11:*:*:*:*:*:*:*", "runc"),
    ("cpe:2.3:o:microsoft:windows_7:6.1.0:*:*:*:*:*:*:*", "windows_7"),
]


def purdue_fixture(hosts: int = 200, seed: int = 7, min_exploits: int = 86) -> tuple[dict, dict]:
    """Industrial network with six zones plus a catalog of >= ``min_exploits``.

    ``hosts`` counts non-attacker hosts and is reached by replicating the
    base layout; replicas run patched service versions, so the vulnerable
    attack surface stays put while grounding effort scales with size.
    """
    base = len(_PURDUE_BASE)
    if hosts < base:
        raise ValueError(f"hosts must be >= {base}")
    rng = random.Random(seed)

    host_entries = list(_PURDUE_BASE)
    for copy_index in range(hosts - base):
        name, zones, stack = _PURDUE_BASE[copy_index % base]
        replica_stack = [
            (_PATCHED.get(cpe, cpe), tcp, udp) for cpe, tcp, udp in stack
        ]
        host_entries.append((f"{name}_r{copy_index // base + 2}", zones, replica_stack))

    network = {
        "name": "purdue_synthetic",
        "subnets": ["internet", "guest", "enterprise", "business", "ot_dmz", "ot"],
        "hosts": [
            {"name": "attacker_host", "subnets": ["internet"], "products": []},
        ] + [
            {
                "name": name,
                "subnets": zones,
                "products": [
                    {"cpe": cpe, "tcp_listen": tcp, "udp_listen": udp}
                    for cpe, tcp, udp in stack
                ],
            }
            for name, zones, stack in host_entries
        ],
        "trusted_channels": [["web_server2", "data1"]],
        "scenario": {
            "attacker_host": "attacker_host",
            "goal_host": "scada4",
            "goal_privilege": "ROOT",
        },
    }

    records = [
        {
            "id": rec_id,
            "name": rec_name,
            "source": "synthetic",
            "description": f"{rec_name}.",
            "cves": [],
            "cvss_vectors": [],
            "vulnerable_configs": [config],
            "class": rec_class,
        }
        for rec_id, rec_name, rec_class, config in _PURDUE_EXPLOITS
    ]
    padding_classes = ["PE_L_R", "PE_H_R"]
    index = 0
    while len(records) < min_exploits:
        config, token = _PADDING_PRODUCTS[index % len(_PADDING_PRODUCTS)]
        variant = index // len(_PADDING_PRODUCTS) + 1
        records.append({
            "id": f"{token}_local_exploit_v{variant}",
            "name": f"{token} local exploit variant {variant}",
            "source": "synthetic",
            "description": f"Synthetic local exploit {variant} for {token}.",
            "cves": [],
            "cvss_vectors": [],
            "vulnerable_configs": [config],
            "class": rng.choice(padding_classes),
        })
        index += 1

    return network, {"records": records}


# --- dense network ----------------------------------------------------------------

_DENSE_LISTENER = "cpe:2.3:a:apache:log4j:2.14.0:*:*:*:*:*:*:*"
_DENSE_KERNEL = "cpe:2.3:o:linux:linux_kernel:4.8.0:*:*:*:*:*:*:*"


def dense_fixture(hosts: int) -> tuple[dict, dict]:
    """Two-zone network where every host runs one vulnerable TCP listener
    and one vulnerable kernel.

    The attacker sits in z0. The first half of the ``hosts`` are in z0 and
    z1, the rest only in z1, and the goal is the last host at ROOT. The
    catalog has two records, a remote exploit of the listener (LOW) and a
    local escalation of the kernel (LOW -> ROOT), so every host is a pivot
    and the exploit sets shorter than the k-th plan grow with ``hosts``.
    """
    if hosts < 1:
        raise ValueError("hosts must be >= 1")
    products = [{"cpe": _DENSE_LISTENER, "tcp_listen": True}, {"cpe": _DENSE_KERNEL}]
    network = {
        "name": f"dense_{hosts}",
        "subnets": ["z0", "z1"],
        "hosts": [{"name": "attacker", "subnets": ["z0"], "products": []}] + [
            {"name": f"h{i}", "subnets": ["z0", "z1"] if i <= hosts // 2 else ["z1"],
             "products": products}
            for i in range(1, hosts + 1)
        ],
        "trusted_channels": [],
        "scenario": {
            "attacker_host": "attacker",
            "goal_host": f"h{hosts}",
            "goal_privilege": "ROOT",
        },
    }
    records = [
        {
            "id": rec_id,
            "name": rec_name,
            "source": "synthetic",
            "description": f"{rec_name}.",
            "cves": [],
            "cvss_vectors": [],
            "vulnerable_configs": [config],
            "class": rec_class,
        }
        for rec_id, rec_name, rec_class, config in (
            ("apache_log4j_jndi_ldap_rce", "Apache Log4j JNDI LDAP remote code execution",
             "RCE_TCP_N_L", _DENSE_LISTENER),
            ("linux_kernel_local_pe", "Linux kernel local privilege escalation",
             "PE_L_R", _DENSE_KERNEL),
        )
    ]
    return network, {"records": records}


# --- randomized small fixtures ----------------------------------------------------

_RF_APPS = [
    # (vendor, product, protocol)
    ("acme", "webd", "tcp"),
    ("blue", "cachedb", "tcp"),
    ("nimbus", "queued", "udp"),
    ("orion", "telemetryd", "udp"),
    ("vega", "filesrv", "tcp"),
]
_RF_OSES = [("nix", "corekrn"), ("redmond", "winsrv")]
_RF_VERSIONS = ["1.0.0", "2.0.0", "2.1.0"]

_RF_RCE_REQUIRED = ["N", "N", "N", "N", "L", "H"]
_RF_RCE_ACQUIRED = ["L", "H", "H", "R"]
# at most one PE class per (product, version); never more than one L_H,
# which keeps privilege-sensitivity counts well behaved
_RF_PE_FIRST = ["PE_L_H", "PE_L_R", "PE_L_R", "PE_H_R"]
_RF_PE_REST = ["PE_L_R", "PE_H_R"]


def random_fixture(seed: int, max_hosts: int = 6,
                   homogeneous_services: bool = False) -> tuple[dict, dict]:
    """Small randomized network + catalog pair (2-3 zones, <= ``max_hosts``).

    With ``homogeneous_services`` every RCE is unauthenticated, each product
    version carries exactly one exploit whose grant level is fixed by the
    version, and every host runs services of a single grant level. Under
    that shape a host can cross LOW->HIGH only through its (at most one)
    local escalation route, which makes the privilege upper/lower-bound
    transforms move minimal-plan counts monotonically. Catalogs outside this
    shape (authenticated RCE boosters, mixed service grants toward one host)
    can legitimately lose or gain minimal chains when grants shift.
    """
    rng = random.Random(seed)
    zone_count = rng.randint(2, 3)
    zones = [f"z{i}" for i in range(zone_count)]
    host_count = rng.randint(3, max_hosts)
    # under the homogeneous shape the version encodes the service grant level
    grant_version = {"L": "1.0.0", "H": "2.0.0", "R": "2.1.0"}

    hosts = [{"name": "h0", "subnets": [zones[0]], "products": []}]
    installed: dict[tuple, dict] = {}
    for i in range(1, host_count):
        # the first host is always exposed to the attacker's zone
        home = 0 if i == 1 else rng.randint(0, zone_count - 1)
        membership = {zones[home]}
        if home > 0 and rng.random() < 0.8:
            membership.add(zones[home - 1])
        products = []
        os_vendor, os_product = rng.choice(_RF_OSES)
        os_version = rng.choice(_RF_VERSIONS)
        products.append({
            "cpe": f"cpe:2.3:o:{os_vendor}:{os_product}:{os_version}:*:*:*:*:*:*:*",
        })
        installed.setdefault(("o", os_vendor, os_product, os_version), {"listen": None})
        host_grant = rng.choices("LHR", weights=(4, 4, 1))[0]
        for vendor, product, proto in rng.sample(_RF_APPS, rng.randint(1, 2)):
            if homogeneous_services:
                version = grant_version[host_grant]
            else:
                version = rng.choice(_RF_VERSIONS)
            listening = rng.random() < 0.9
            entry = {
                "cpe": f"cpe:2.3:a:{vendor}:{product}:{version}:*:*:*:*:*:*:*",
            }
            if listening:
                entry[f"{proto}_listen"] = True
            products.append(entry)
            key = ("a", vendor, product, version)
            installed.setdefault(key, {"listen": proto})
        hosts.append({
            "name": f"h{i}",
            "subnets": sorted(membership),
            "products": products,
        })

    goal_candidates = [h["name"] for h in hosts[1:]]
    # bias the goal toward the deepest zone so multi-hop chains appear
    deep = [h["name"] for h in hosts[1:] if zones[-1] in h["subnets"]]
    goal = rng.choice(deep) if deep and rng.random() < 0.8 else rng.choice(goal_candidates)

    trusted = []
    if host_count > 3 and rng.random() < 0.25:
        src, dst = rng.sample(goal_candidates, 2)
        trusted.append([src, dst])

    network = {
        "name": f"random_{seed}",
        "subnets": zones,
        "hosts": hosts,
        "trusted_channels": trusted,
        "scenario": {
            "attacker_host": "h0",
            "goal_host": goal,
            "goal_privilege": "ROOT",
        },
    }

    records = []
    for key in sorted(installed):
        part, vendor, product, version = key
        proto = installed[key]["listen"]
        tag = version.replace(".", "_")
        if part == "a":
            if homogeneous_services:
                acquired = {"1.0.0": "L", "2.0.0": "H", "2.1.0": "R"}[version]
                records.append({
                    "id": f"{vendor}_{product}_{tag}_rce_v1",
                    "name": f"{vendor} {product} {version} remote exploit",
                    "source": "synthetic",
                    "description": f"Synthetic remote exploit for {product} {version}.",
                    "cves": [],
                    "cvss_vectors": [],
                    "vulnerable_configs":
                        [f"cpe:2.3:a:{vendor}:{product}:{version}:*:*:*:*:*:*:*"],
                    "class": f"RCE_{proto.upper()}_N_{acquired}",
                })
                continue
            for j in range(rng.randint(1, 2)):
                required = rng.choice(_RF_RCE_REQUIRED)
                acquired = rng.choice(_RF_RCE_ACQUIRED)
                order = "NLHR"
                if order.index(acquired) <= order.index(required):
                    continue
                records.append({
                    "id": f"{vendor}_{product}_{tag}_rce_v{j + 1}",
                    "name": f"{vendor} {product} {version} remote exploit {j + 1}",
                    "source": "synthetic",
                    "description": f"Synthetic remote exploit {j + 1} for {product} {version}.",
                    "cves": [],
                    "cvss_vectors": [],
                    "vulnerable_configs":
                        [f"cpe:2.3:a:{vendor}:{product}:{version}:*:*:*:*:*:*:*"],
                    "class": f"RCE_{proto.upper()}_{required}_{acquired}",
                })
        else:
            for j in range(rng.randint(0, 2)):
                pool = _RF_PE_FIRST if j == 0 else _RF_PE_REST
                records.append({
                    "id": f"{vendor}_{product}_{tag}_pe_v{j + 1}",
                    "name": f"{vendor} {product} {version} local exploit {j + 1}",
                    "source": "synthetic",
                    "description": f"Synthetic local exploit {j + 1} for {product} {version}.",
                    "cves": [],
                    "cvss_vectors": [],
                    "vulnerable_configs":
                        [f"cpe:2.3:o:{vendor}:{product}:{version}:*:*:*:*:*:*:*"],
                    "class": rng.choice(pool),
                })

    return network, {"records": records}
