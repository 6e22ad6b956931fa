"""FlexRAN core: protocol, agent, controller, applications."""
