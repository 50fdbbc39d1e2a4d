package gamma

import "fmt"

// Validate is the single validation path for a machine configuration:
// hardware parameters, buffer sizing, the fault spec, every optional
// subsystem spec, and cross-subsystem exclusions. NewImage and New call
// it; direct Config consumers can call it early for better error
// locality.
func (c *Config) Validate(processors int) error {
	if err := c.HW.Validate(); err != nil {
		return err
	}
	if c.BufferPages < 0 {
		return fmt.Errorf("gamma: negative buffer size %d", c.BufferPages)
	}
	if err := c.Faults.Validate(processors); err != nil {
		return err
	}
	if err := c.Telemetry.validate(); err != nil {
		return err
	}
	if err := c.Heat.validate(); err != nil {
		return err
	}
	if err := c.Sharing.validate(); err != nil {
		return err
	}
	if err := c.Elastic.validate(processors); err != nil {
		return err
	}
	return nil
}
