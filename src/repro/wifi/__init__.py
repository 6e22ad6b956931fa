"""Wi-Fi substrate: the Section 7.2 'adaptability beyond LTE' demo.

``ap`` is the access point and its stations, ``agent`` the FlexRAN
agent binding; ``repro.sim.scenarios.wifi_sdran`` wires them.  The
package re-exports nothing."""
